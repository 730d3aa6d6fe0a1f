"""Recursive-descent parser for the mini-C subset.

The grammar follows C's expression precedence; the statement forms are the
ones the paper's example code and the test programs need (declarations,
expression statements, ``if``/``else``, ``while``, ``for``, ``return``,
``break``/``continue``, ``goto``/labels, blocks).  On top of that the front
end covers the real-C shapes the paper's server functions lean on:

* ``struct`` definitions with scalar and pointer fields, member access via
  ``.`` and ``->``;
* ``typedef`` of scalar, pointer, struct, and function-pointer types;
* function-pointer declarators (``int (*cmp)(int, int)``) and calls through
  them (``cmp(a, b)`` or ``(*cmp)(a, b)``);
* ``sizeof(type)`` including ``sizeof(struct tag)``.

Every node produced here carries the ``(line, column)`` of its starting
token in ``node.pos``, which the compile checks and the interpreter thread
into their diagnostics.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import MiniCError
from repro.minic import ast_nodes as ast
from repro.minic.lexer import Token, TokenType, tokenize


class ParseError(MiniCError):
    """Raised when the source does not conform to the supported subset."""


_TYPE_KEYWORDS = {"int", "char", "unsigned", "void", "size_t", "const", "static", "struct"}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}

#: Binary operator precedence levels, lowest binding first.
_BINARY_LEVELS = [
    ["||"],
    ["&&"],
    ["|"],
    ["^"],
    ["&"],
    ["==", "!="],
    ["<", ">", "<=", ">="],
    ["<<", ">>"],
    ["+", "-"],
    ["*", "/", "%"],
]


class Parser:
    """Token-stream parser producing a :class:`~repro.minic.ast_nodes.TranslationUnit`."""

    def __init__(self, tokens: List[Token]) -> None:
        self.tokens = tokens
        self.position = 0
        #: ``typedef`` aliases introduced so far, name -> aliased type.
        self.typedefs: Dict[str, ast.CType] = {}

    # -- token helpers -------------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        index = min(self.position + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.tokens[self.position]
        if token.type is not TokenType.EOF:
            self.position += 1
        return token

    def check_punct(self, text: str) -> bool:
        return self.peek().is_punct(text)

    def accept_punct(self, text: str) -> bool:
        if self.check_punct(text):
            self.advance()
            return True
        return False

    def expect_punct(self, text: str) -> Token:
        token = self.peek()
        if not token.is_punct(text):
            raise self.error(f"expected {text!r}")
        return self.advance()

    def accept_keyword(self, text: str) -> bool:
        if self.peek().is_keyword(text):
            self.advance()
            return True
        return False

    def error(self, message: str) -> ParseError:
        token = self.peek()
        shown = token.value if token.type is not TokenType.EOF else "<eof>"
        return ParseError(f"line {token.line}, column {token.column}: {message} (got {shown!r})")

    @staticmethod
    def _at(node, token: Token):
        """Stamp a node with its starting token's source position."""
        node.pos = (token.line, token.column)
        return node

    # -- types ---------------------------------------------------------------------

    def parse_type(self, consume_pointers: bool = True) -> ast.CType:
        """Parse a type name: qualifiers, base scalar, and (optionally) ``*`` suffixes.

        Local declarations pass ``consume_pointers=False`` because in C the
        ``*`` belongs to each declarator (``char *p, c;`` declares one pointer
        and one plain char).
        """
        while self.accept_keyword("static") or self.accept_keyword("const"):
            pass
        unsigned = False
        if self.accept_keyword("unsigned"):
            unsigned = True
        base = "int"
        alias_depth = 0
        token = self.peek()
        if token.is_keyword("struct"):
            self.advance()
            tag = self.advance()
            if tag.type is not TokenType.IDENT:
                raise self.error("expected a struct tag")
            base = f"struct {tag.value}"
        elif token.type is TokenType.KEYWORD and token.value in ("int", "char", "void", "size_t"):
            self.advance()
            base = "int" if token.value == "size_t" else token.value
        elif token.type is TokenType.IDENT and token.value in self.typedefs:
            self.advance()
            aliased = self.typedefs[token.value]
            base = aliased.base
            alias_depth = aliased.pointer_depth
        elif not unsigned:
            raise self.error("expected a type name")
        while self.accept_keyword("const"):
            pass
        if unsigned:
            base = f"unsigned {base}" if base in ("char", "int") else base
        pointer_depth = alias_depth
        if consume_pointers:
            while self.accept_punct("*"):
                pointer_depth += 1
                while self.accept_keyword("const"):
                    pass
        return ast.CType(base=base, pointer_depth=pointer_depth)

    # -- top level -------------------------------------------------------------------

    def parse_translation_unit(self) -> ast.TranslationUnit:
        unit = ast.TranslationUnit()
        while self.peek().type is not TokenType.EOF:
            token = self.peek()
            if token.is_keyword("typedef"):
                self._parse_typedef(unit)
                continue
            if (
                token.is_keyword("struct")
                and self.peek(1).type is TokenType.IDENT
                and self.peek(2).is_punct("{")
            ):
                unit.structs.append(self._parse_struct_def())
                continue
            declared_type = self.parse_type()
            name_token = self.peek()
            if name_token.type is not TokenType.IDENT:
                raise self.error("expected an identifier")
            self.advance()
            if self.check_punct("("):
                function = self._parse_function(declared_type, name_token.value)
                unit.functions.append(self._at(function, name_token))
            else:
                unit.globals.append(self._at(self._parse_global(declared_type, name_token.value), name_token))
        return unit

    def _parse_struct_fields(self) -> List[ast.StructField]:
        """Parse ``{ type name, ...; ... }`` — the body of a struct definition."""
        self.expect_punct("{")
        fields: List[ast.StructField] = []
        while not self.accept_punct("}"):
            if self.peek().type is TokenType.EOF:
                raise self.error("unterminated struct definition")
            field_type = self.parse_type(consume_pointers=False)
            while True:
                depth = 0
                while self.accept_punct("*"):
                    depth += 1
                name = self.advance()
                if name.type is not TokenType.IDENT:
                    raise self.error("expected a field name")
                if self.check_punct("["):
                    raise self.error("array struct fields are not supported by the subset")
                fields.append(
                    ast.StructField(
                        type=ast.CType(field_type.base, field_type.pointer_depth + depth),
                        name=name.value,
                    )
                )
                if not self.accept_punct(","):
                    break
            self.expect_punct(";")
        return fields

    def _parse_struct_def(self) -> ast.StructDef:
        start = self.advance()  # 'struct'
        tag = self.advance()  # IDENT, guaranteed by the caller's lookahead
        fields = self._parse_struct_fields()
        self.expect_punct(";")
        return self._at(ast.StructDef(name=tag.value, fields=fields), start)

    def _parse_typedef(self, unit: ast.TranslationUnit) -> None:
        start = self.advance()  # 'typedef'
        if self.peek().is_keyword("struct") and self.peek(1).is_punct("{"):
            # ``typedef struct { ... } Name;`` — the alias names the struct.
            self.advance()
            fields = self._parse_struct_fields()
            name = self.advance()
            if name.type is not TokenType.IDENT:
                raise self.error("expected a typedef name")
            self.expect_punct(";")
            unit.structs.append(self._at(ast.StructDef(name=name.value, fields=fields), start))
            self.typedefs[name.value] = ast.CType(f"struct {name.value}", 0)
            return
        aliased = self.parse_type()
        if self.check_punct("("):
            # ``typedef int (*name)(params);`` — an opaque function pointer.
            name = self._parse_funcptr_declarator()
            self.expect_punct(";")
            self.typedefs[name] = ast.CType("funcptr", 0)
            return
        name = self.advance()
        if name.type is not TokenType.IDENT:
            raise self.error("expected a typedef name")
        self.expect_punct(";")
        self.typedefs[name.value] = aliased

    def _parse_funcptr_declarator(self) -> str:
        """Parse ``(*name)(param-types)`` after the return type, yielding the name."""
        self.expect_punct("(")
        self.expect_punct("*")
        name = self.advance()
        if name.type is not TokenType.IDENT:
            raise self.error("expected a name in the function-pointer declarator")
        self.expect_punct(")")
        self.expect_punct("(")
        if not self.check_punct(")"):
            while True:
                if self.peek().is_keyword("void") and self.peek(1).is_punct(")"):
                    self.advance()
                    break
                self.parse_type()
                if self.peek().type is TokenType.IDENT:
                    self.advance()
                if not self.accept_punct(","):
                    break
        self.expect_punct(")")
        return name.value

    def _parse_function(self, return_type: ast.CType, name: str) -> ast.FunctionDef:
        self.expect_punct("(")
        parameters: List[ast.Parameter] = []
        if not self.check_punct(")"):
            while True:
                if self.peek().is_keyword("void") and self.peek(1).is_punct(")"):
                    self.advance()
                    break
                param_type = self.parse_type()
                if self.check_punct("(") and self.peek(1).is_punct("*"):
                    param_name = self._parse_funcptr_declarator()
                    parameters.append(
                        ast.Parameter(type=ast.CType("funcptr", 0), name=param_name)
                    )
                else:
                    name_token = self.advance()
                    if name_token.type is not TokenType.IDENT:
                        raise self.error("expected a parameter name")
                    # Array-style parameters decay to pointers.
                    if self.accept_punct("["):
                        self.expect_punct("]")
                        param_type = ast.CType(param_type.base, param_type.pointer_depth + 1)
                    parameters.append(ast.Parameter(type=param_type, name=name_token.value))
                if not self.accept_punct(","):
                    break
        self.expect_punct(")")
        body = self.parse_block()
        return ast.FunctionDef(name=name, return_type=return_type, parameters=parameters, body=body)

    def _parse_global(self, var_type: ast.CType, name: str) -> ast.GlobalVar:
        array_size: Optional[ast.Expr] = None
        initializer: Optional[ast.Expr] = None
        if self.accept_punct("["):
            if not self.check_punct("]"):
                array_size = self.parse_assignment()
            self.expect_punct("]")
        if self.accept_punct("="):
            initializer = self.parse_assignment()
        self.expect_punct(";")
        return ast.GlobalVar(type=var_type, name=name, array_size=array_size, initializer=initializer)

    # -- statements --------------------------------------------------------------------

    def parse_block(self) -> ast.Block:
        start = self.expect_punct("{")
        statements: List[ast.Stmt] = []
        while not self.check_punct("}"):
            if self.peek().type is TokenType.EOF:
                raise self.error("unterminated block")
            statements.append(self.parse_statement())
        self.expect_punct("}")
        return self._at(ast.Block(statements=statements), start)

    def parse_statement(self) -> ast.Stmt:
        token = self.peek()
        if token.is_punct("{"):
            return self.parse_block()
        if token.is_punct(";"):
            self.advance()
            return self._at(ast.Empty(), token)
        if token.type is TokenType.KEYWORD:
            keyword = token.value
            if keyword in _TYPE_KEYWORDS:
                return self._parse_declaration()
            if keyword == "if":
                return self._parse_if()
            if keyword == "while":
                return self._parse_while()
            if keyword == "for":
                return self._parse_for()
            if keyword == "return":
                self.advance()
                value = None if self.check_punct(";") else self.parse_expression()
                self.expect_punct(";")
                return self._at(ast.Return(value=value), token)
            if keyword == "break":
                self.advance()
                self.expect_punct(";")
                return self._at(ast.Break(), token)
            if keyword == "continue":
                self.advance()
                self.expect_punct(";")
                return self._at(ast.Continue(), token)
            if keyword == "goto":
                self.advance()
                label = self.advance()
                if label.type is not TokenType.IDENT:
                    raise self.error("expected a label name after goto")
                self.expect_punct(";")
                return self._at(ast.Goto(label=label.value), token)
        if token.type is TokenType.IDENT and self.peek(1).is_punct(":"):
            self.advance()
            self.advance()
            return self._at(ast.Label(name=token.value), token)
        if token.type is TokenType.IDENT and token.value in self.typedefs:
            return self._parse_declaration()
        expr = self.parse_expression()
        self.expect_punct(";")
        return self._at(ast.ExprStatement(expr=expr), token)

    def _parse_declaration(self) -> ast.Stmt:
        start = self.peek()
        declared_type = self.parse_type(consume_pointers=False)
        if self.check_punct("(") and self.peek(1).is_punct("*"):
            # ``int (*fp)(int);`` — a local function-pointer declarator.
            name = self._parse_funcptr_declarator()
            initializer: Optional[ast.Expr] = None
            if self.accept_punct("="):
                initializer = self.parse_assignment()
            self.expect_punct(";")
            return self._at(
                ast.Declaration(type=ast.CType("funcptr", 0), name=name, initializer=initializer),
                start,
            )
        declarations: List[ast.Stmt] = []
        while True:
            # Each declarator may add its own pointer depth: ``char *buf, *p;``
            extra_depth = 0
            while self.accept_punct("*"):
                extra_depth += 1
            name = self.advance()
            if name.type is not TokenType.IDENT:
                raise self.error("expected a variable name")
            var_type = ast.CType(declared_type.base, declared_type.pointer_depth + extra_depth)
            array_size: Optional[ast.Expr] = None
            initializer = None
            if self.accept_punct("["):
                array_size = self.parse_assignment()
                self.expect_punct("]")
            if self.accept_punct("="):
                initializer = self.parse_assignment()
            declarations.append(
                self._at(
                    ast.Declaration(
                        type=var_type, name=name.value, array_size=array_size, initializer=initializer
                    ),
                    name,
                )
            )
            if not self.accept_punct(","):
                break
        self.expect_punct(";")
        if len(declarations) == 1:
            return declarations[0]
        return self._at(ast.Block(statements=declarations), start)

    def _parse_if(self) -> ast.Stmt:
        start = self.advance()
        self.expect_punct("(")
        condition = self.parse_expression()
        self.expect_punct(")")
        then_branch = self.parse_statement()
        else_branch = None
        if self.accept_keyword("else"):
            else_branch = self.parse_statement()
        return self._at(
            ast.If(condition=condition, then_branch=then_branch, else_branch=else_branch), start
        )

    def _parse_while(self) -> ast.Stmt:
        start = self.advance()
        self.expect_punct("(")
        condition = self.parse_expression()
        self.expect_punct(")")
        body = self.parse_statement()
        return self._at(ast.While(condition=condition, body=body), start)

    def _parse_for(self) -> ast.Stmt:
        start = self.advance()
        self.expect_punct("(")
        init = None if self.check_punct(";") else self.parse_expression()
        self.expect_punct(";")
        condition = None if self.check_punct(";") else self.parse_expression()
        self.expect_punct(";")
        step = None if self.check_punct(")") else self.parse_expression()
        self.expect_punct(")")
        body = self.parse_statement()
        return self._at(ast.For(init=init, condition=condition, step=step, body=body), start)

    # -- expressions ----------------------------------------------------------------------

    def parse_expression(self) -> ast.Expr:
        """Full expression including the comma operator."""
        start = self.peek()
        first = self.parse_assignment()
        if not self.check_punct(","):
            return first
        parts = [first]
        while self.accept_punct(","):
            parts.append(self.parse_assignment())
        return self._at(ast.Comma(parts=parts), start)

    def parse_assignment(self) -> ast.Expr:
        start = self.peek()
        target = self.parse_ternary()
        token = self.peek()
        if token.type is TokenType.PUNCT and token.value in _ASSIGN_OPS:
            self.advance()
            value = self.parse_assignment()
            op = token.value[:-1] if token.value != "=" else ""
            return self._at(ast.Assign(target=target, op=op, value=value), start)
        return target

    def parse_ternary(self) -> ast.Expr:
        start = self.peek()
        condition = self.parse_binary(0)
        if self.accept_punct("?"):
            if_true = self.parse_assignment()
            self.expect_punct(":")
            if_false = self.parse_assignment()
            return self._at(
                ast.Ternary(condition=condition, if_true=if_true, if_false=if_false), start
            )
        return condition

    def parse_binary(self, level: int) -> ast.Expr:
        if level >= len(_BINARY_LEVELS):
            return self.parse_unary()
        left = self.parse_binary(level + 1)
        while True:
            token = self.peek()
            if token.type is TokenType.PUNCT and token.value in _BINARY_LEVELS[level]:
                self.advance()
                right = self.parse_binary(level + 1)
                left = self._at(ast.Binary(op=token.value, left=left, right=right), token)
            else:
                return left

    def parse_unary(self) -> ast.Expr:
        token = self.peek()
        if token.is_punct("++") or token.is_punct("--"):
            self.advance()
            operand = self.parse_unary()
            return self._at(ast.IncDec(target=operand, op=token.value, postfix=False), token)
        if token.type is TokenType.PUNCT and token.value in ("-", "!", "~", "*", "&", "+"):
            self.advance()
            operand = self.parse_unary()
            if token.value == "+":
                return operand
            return self._at(ast.Unary(op=token.value, operand=operand), token)
        if token.is_keyword("sizeof"):
            self.advance()
            self.expect_punct("(")
            size_type = self.parse_type()
            self.expect_punct(")")
            return self._at(ast.SizeOf(type=size_type), token)
        if token.is_punct("(") and self._looks_like_cast():
            self.advance()
            cast_type = self.parse_type()
            self.expect_punct(")")
            operand = self.parse_unary()
            return self._at(ast.Cast(type=cast_type, operand=operand), token)
        return self.parse_postfix()

    def _looks_like_cast(self) -> bool:
        next_token = self.peek(1)
        if next_token.type is TokenType.KEYWORD and next_token.value in _TYPE_KEYWORDS:
            return True
        return next_token.type is TokenType.IDENT and next_token.value in self.typedefs

    def parse_postfix(self) -> ast.Expr:
        expr = self.parse_primary()
        while True:
            token = self.peek()
            if self.accept_punct("["):
                index = self.parse_expression()
                self.expect_punct("]")
                expr = self._at(ast.Index(base=expr, index=index), token)
            elif self.check_punct(".") or self.check_punct("->"):
                op = self.advance().value
                name = self.advance()
                if name.type is not TokenType.IDENT:
                    raise self.error("expected a member name")
                expr = self._at(ast.Member(base=expr, name=name.value, arrow=op == "->"), token)
            elif self.check_punct("("):
                # Call through a computed callee: ``(*fp)(x)``, ``s.fn(x)``.
                expr = self._at(ast.IndirectCall(callee=expr, args=self._parse_args()), token)
            elif self.check_punct("++") or self.check_punct("--"):
                op = self.advance().value
                expr = self._at(ast.IncDec(target=expr, op=op, postfix=True), token)
            else:
                return expr

    def parse_primary(self) -> ast.Expr:
        token = self.peek()
        if token.type is TokenType.NUMBER or token.type is TokenType.CHAR:
            self.advance()
            return self._at(ast.IntLiteral(value=int(token.value)), token)
        if token.type is TokenType.STRING:
            self.advance()
            return self._at(ast.StringLiteral(value=token.value), token)
        if token.is_keyword("NULL"):
            self.advance()
            return self._at(ast.IntLiteral(value=0), token)
        if token.type is TokenType.IDENT:
            self.advance()
            if self.check_punct("("):
                return self._at(ast.Call(name=token.value, args=self._parse_args()), token)
            return self._at(ast.Identifier(name=token.value), token)
        if self.accept_punct("("):
            expr = self.parse_expression()
            self.expect_punct(")")
            return expr
        raise self.error("expected an expression")

    def _parse_args(self) -> List[ast.Expr]:
        self.expect_punct("(")
        args: List[ast.Expr] = []
        if not self.check_punct(")"):
            while True:
                args.append(self.parse_assignment())
                if not self.accept_punct(","):
                    break
        self.expect_punct(")")
        return args


def parse(source: str, includes=None, defines=None) -> ast.TranslationUnit:
    """Tokenize and parse source text into a translation unit."""
    return Parser(tokenize(source, includes=includes, defines=defines)).parse_translation_unit()
