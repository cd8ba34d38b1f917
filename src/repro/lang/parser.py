"""Recursive-descent parser for the core language.

One token of lookahead everywhere except two bounded backtracking points:
local-declaration-vs-expression statements (``TNode<this, o> n = ...`` vs
``n.f = ...``) and explicit method owner arguments (``v.mn<o1>(x)`` vs a
``<`` comparison), both resolved by trying the declaration/owner-list parse
first and rolling back on failure.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import ParseError
from ..source import Loc, loc_span, merge_locs
from . import ast
from .lexer import tokenize
from .tokens import BUILTIN_KIND_NAMES, Token, TokenKind

#: Intrinsic functions understood by the interpreter.
BUILTIN_FUNCTIONS = frozenset({
    "print", "io", "yieldnow", "sqrt", "itof", "ftoi", "check",
})

#: Built-in classes (simulated primitive arrays); their ``new`` takes a
#: length argument and they cannot be user-defined.
BUILTIN_CLASSES = frozenset({"IntArray", "FloatArray"})

_PRIM_TYPE_TOKENS = {
    TokenKind.INT: "int",
    TokenKind.FLOAT: "float",
    TokenKind.BOOLEAN: "boolean",
    TokenKind.VOID: "void",
}

_SPECIAL_OWNER_TOKENS = {
    TokenKind.THIS: "this",
    TokenKind.HEAP: "heap",
    TokenKind.IMMORTAL: "immortal",
    TokenKind.INITIAL_REGION: "initialRegion",
    TokenKind.RT: "RT",
}

_BINARY_LEVELS: List[List[Tuple[TokenKind, str]]] = [
    [(TokenKind.OR_OR, "||")],
    [(TokenKind.AND_AND, "&&")],
    [(TokenKind.EQ, "=="), (TokenKind.NE, "!=")],
    [(TokenKind.LANGLE, "<"), (TokenKind.RANGLE, ">"),
     (TokenKind.LE, "<="), (TokenKind.GE, ">=")],
    [(TokenKind.PLUS, "+"), (TokenKind.MINUS, "-")],
    [(TokenKind.STAR, "*"), (TokenKind.SLASH, "/"),
     (TokenKind.PERCENT, "%")],
]

#: token kind -> (binding power, operator text); higher binds tighter
_BIN_PREC = {kind: (level, op)
             for level, tier in enumerate(_BINARY_LEVELS)
             for kind, op in tier}


class Parser:
    def __init__(self, tokens: List[Token], filename: str = "<input>",
                 source_text: str = ""):
        self.tokens = tokens
        self.index = 0
        self.filename = filename
        self.source_text = source_text

    # ------------------------------------------------------------------
    # token helpers
    # ------------------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        # the EOF token is always last and _advance never moves past it,
        # so offset-0 peeks (the overwhelmingly common case) need no
        # bounds check
        if offset:
            i = min(self.index + offset, len(self.tokens) - 1)
            return self.tokens[i]
        return self.tokens[self.index]

    def _at(self, kind: TokenKind) -> bool:
        return self.tokens[self.index].kind is kind

    def _advance(self) -> Token:
        tok = self.tokens[self.index]
        if tok.kind is not TokenKind.EOF:
            self.index += 1
        return tok

    def _accept(self, kind: TokenKind) -> Optional[Token]:
        if self._at(kind):
            return self._advance()
        return None

    def _expect(self, kind: TokenKind, what: str = "") -> Token:
        if self._at(kind):
            return self._advance()
        tok = self._peek()
        wanted = what or kind.name
        raise ParseError(f"expected {wanted}, found {tok.text!r}",
                         tok.span)

    def _loc_from(self, start: Loc) -> Loc:
        prev = self.tokens[max(self.index - 1, 0)]
        return merge_locs(start, prev.loc)

    # ------------------------------------------------------------------
    # program / declarations
    # ------------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        classes: List[ast.ClassDecl] = []
        region_kinds: List[ast.RegionKindDecl] = []
        main_stmts: List[ast.Stmt] = []
        main_loc = self._peek().loc
        while not self._at(TokenKind.EOF):
            if self._at(TokenKind.CLASS):
                classes.append(self.parse_class_decl())
            elif self._at(TokenKind.REGION_KIND):
                region_kinds.append(self.parse_region_kind_decl())
            else:
                main_stmts.append(self.parse_stmt())
        main = ast.Block(main_stmts, main_loc) if main_stmts else None
        return ast.Program(classes, region_kinds, main,
                           filename=self.filename,
                           source_text=self.source_text)

    def parse_class_decl(self) -> ast.ClassDecl:
        start = self._expect(TokenKind.CLASS).loc
        name = self._expect(TokenKind.IDENT, "class name").text
        # owner formals are optional: Section 2.5 defaults supply a single
        # `Owner` formal for unannotated classes
        formals: List[ast.FormalAst] = []
        if self._at(TokenKind.LANGLE):
            formals = self._parse_formal_list()
        superclass = None
        if self._accept(TokenKind.EXTENDS):
            superclass = self._parse_class_type()
        constraints = self._parse_where_clause()
        self._expect(TokenKind.LBRACE)
        fields: List[ast.FieldDecl] = []
        methods: List[ast.MethodDecl] = []
        while not self._at(TokenKind.RBRACE):
            member = self._parse_class_member()
            if isinstance(member, ast.FieldDecl):
                fields.append(member)
            else:
                methods.append(member)
        self._expect(TokenKind.RBRACE)
        return ast.ClassDecl(name, formals, superclass, constraints,
                             fields, methods, self._loc_from(start))

    def _parse_class_member(self):
        start = self._peek().loc
        static = self._accept(TokenKind.STATIC) is not None
        declared_type = self.parse_type()
        name = self._expect(TokenKind.IDENT, "member name").text
        if not static and (self._at(TokenKind.LPAREN)
                           or self._at(TokenKind.LANGLE)):
            return self._parse_method_rest(declared_type, name, start)
        init = None
        if self._accept(TokenKind.ASSIGN):
            init = self.parse_expr()
        self._expect(TokenKind.SEMI)
        return ast.FieldDecl(declared_type, name, static, init,
                             self._loc_from(start))

    def _parse_method_rest(self, return_type: ast.TypeAst, name: str,
                           start: Loc) -> ast.MethodDecl:
        formals: List[ast.FormalAst] = []
        if self._at(TokenKind.LANGLE):
            formals = self._parse_formal_list()
        self._expect(TokenKind.LPAREN)
        params: List[Tuple[ast.TypeAst, str]] = []
        while not self._at(TokenKind.RPAREN):
            if params:
                self._expect(TokenKind.COMMA)
            ptype = self.parse_type()
            pname = self._expect(TokenKind.IDENT, "parameter name").text
            params.append((ptype, pname))
        self._expect(TokenKind.RPAREN)
        effects: Optional[List[ast.OwnerAst]] = None
        if self._accept(TokenKind.ACCESSES):
            effects = [self.parse_owner()]
            while self._accept(TokenKind.COMMA):
                effects.append(self.parse_owner())
        constraints = self._parse_where_clause()
        body = self.parse_block()
        return ast.MethodDecl(return_type, name, formals, params, effects,
                              constraints, body, self._loc_from(start))

    def parse_region_kind_decl(self) -> ast.RegionKindDecl:
        start = self._expect(TokenKind.REGION_KIND).loc
        name = self._expect(TokenKind.IDENT, "region kind name").text
        formals: List[ast.FormalAst] = []
        if self._at(TokenKind.LANGLE):
            formals = self._parse_formal_list()
        self._expect(TokenKind.EXTENDS)
        superkind = self.parse_kind()
        constraints = self._parse_where_clause()
        self._expect(TokenKind.LBRACE)
        portals: List[ast.FieldDecl] = []
        subregions: List[ast.SubregionDecl] = []
        while not self._at(TokenKind.RBRACE):
            member = self._parse_region_member()
            if isinstance(member, ast.FieldDecl):
                portals.append(member)
            else:
                subregions.append(member)
        self._expect(TokenKind.RBRACE)
        return ast.RegionKindDecl(name, formals, superkind, constraints,
                                  portals, subregions,
                                  self._loc_from(start))

    def _parse_region_member(self):
        """A portal field ``t fd;`` or a subregion declaration
        ``srkind [: LT(size)|: VT] [RT|NoRT] rsub;``.

        A member is a subregion iff its "type" is a bare identifier that is
        not followed by owner arguments typical of class types — we decide
        by what follows the name: portal fields use class/prim types, while
        subregions may carry a policy/RT marker.  To keep the grammar
        unambiguous, a member whose declared type is a ``ClassTypeAst``
        naming a *region kind* is resolved as a subregion later; here we
        dispatch purely syntactically on the presence of ``:``/``RT``/
        ``NoRT`` or rely on the semantic layer.  We use the syntactic rule:
        if after the leading identifier (with optional ``<owners>``) comes
        ``:``, ``RT`` or ``NoRT``, or the identifier is a known kind name,
        it is a subregion; otherwise if the next-next token is ``;`` and the
        name starts lowercase it is still ambiguous, so the semantic layer
        (program table construction) reclassifies portal fields whose type
        names a region kind.
        """
        start = self._peek().loc
        declared_type = self.parse_type()
        if (self._at(TokenKind.COLON) or self._at(TokenKind.RT)
                or self._at(TokenKind.NORT)):
            if not isinstance(declared_type, ast.ClassTypeAst):
                raise ParseError("subregion declaration requires a region "
                                 "kind name", self._peek().span)
            kind = ast.KindAst(declared_type.name, declared_type.owners,
                               False, declared_type.loc)
            policy = ast.PolicyAst("VT", loc=start)
            if self._accept(TokenKind.COLON):
                policy = self._parse_policy()
            realtime = False
            if self._accept(TokenKind.RT):
                realtime = True
            elif self._accept(TokenKind.NORT):
                realtime = False
            name = self._expect(TokenKind.IDENT, "subregion name").text
            self._expect(TokenKind.SEMI)
            return ast.SubregionDecl(kind, policy, realtime, name,
                                     self._loc_from(start))
        name = self._expect(TokenKind.IDENT, "portal or subregion name").text
        self._expect(TokenKind.SEMI)
        return ast.FieldDecl(declared_type, name, False, None,
                             self._loc_from(start))

    def _parse_formal_list(self) -> List[ast.FormalAst]:
        self._expect(TokenKind.LANGLE)
        formals = [self._parse_formal()]
        while self._accept(TokenKind.COMMA):
            formals.append(self._parse_formal())
        self._expect(TokenKind.RANGLE)
        return formals

    def _parse_formal(self) -> ast.FormalAst:
        start = self._peek().loc
        kind = self.parse_kind()
        name = self._expect(TokenKind.IDENT, "owner formal name").text
        return ast.FormalAst(kind, name, self._loc_from(start))

    def parse_kind(self) -> ast.KindAst:
        """``Owner | ObjOwner | Region | ... | srkn<owners>``, with an
        optional ``:LT`` refinement."""
        start = self._peek().loc
        name = self._expect(TokenKind.IDENT, "owner kind").text
        args: Tuple[ast.OwnerAst, ...] = ()
        if name not in BUILTIN_KIND_NAMES and self._at(TokenKind.LANGLE):
            args = tuple(self._parse_owner_args())
        lt = False
        if self._at(TokenKind.COLON) and self._peek(1).kind is TokenKind.LT:
            self._advance()
            self._advance()
            lt = True
        return ast.KindAst(name, args, lt, self._loc_from(start))

    def _parse_policy(self) -> ast.PolicyAst:
        start = self._peek().loc
        if self._accept(TokenKind.VT):
            return ast.PolicyAst("VT", loc=start)
        self._expect(TokenKind.LT, "'LT' or 'VT'")
        self._expect(TokenKind.LPAREN)
        size = int(self._expect(TokenKind.INT_LIT, "LT region size").text)
        self._expect(TokenKind.RPAREN)
        return ast.PolicyAst("LT", size, self._loc_from(start))

    def _parse_where_clause(self) -> List[ast.ConstraintAst]:
        constraints: List[ast.ConstraintAst] = []
        if self._accept(TokenKind.WHERE):
            constraints.append(self._parse_constraint())
            while self._accept(TokenKind.COMMA):
                constraints.append(self._parse_constraint())
        return constraints

    def _parse_constraint(self) -> ast.ConstraintAst:
        start = self._peek().loc
        left = self.parse_owner()
        if self._accept(TokenKind.OWNS):
            relation = "owns"
        else:
            self._expect(TokenKind.OUTLIVES, "'owns' or 'outlives'")
            relation = "outlives"
        right = self.parse_owner()
        return ast.ConstraintAst(relation, left, right,
                                 self._loc_from(start))

    # ------------------------------------------------------------------
    # types and owners
    # ------------------------------------------------------------------

    def parse_type(self) -> ast.TypeAst:
        tok = self._peek()
        if tok.kind in _PRIM_TYPE_TOKENS:
            self._advance()
            return ast.PrimTypeAst(_PRIM_TYPE_TOKENS[tok.kind], tok.loc)
        if tok.kind is TokenKind.RHANDLE:
            self._advance()
            self._expect(TokenKind.LANGLE)
            region = self.parse_owner()
            self._expect(TokenKind.RANGLE)
            return ast.HandleTypeAst(region, tok.loc)
        return self._parse_class_type()

    def _parse_class_type(self) -> ast.ClassTypeAst:
        tok = self._expect(TokenKind.IDENT, "type name")
        owners: Tuple[ast.OwnerAst, ...] = ()
        if self._at(TokenKind.LANGLE):
            owners = tuple(self._parse_owner_args())
        return ast.ClassTypeAst(tok.text, owners, tok.loc)

    def _parse_owner_args(self) -> List[ast.OwnerAst]:
        self._expect(TokenKind.LANGLE)
        owners = [self.parse_owner()]
        while self._accept(TokenKind.COMMA):
            owners.append(self.parse_owner())
        self._expect(TokenKind.RANGLE)
        return owners

    def parse_owner(self) -> ast.OwnerAst:
        tok = self._peek()
        if tok.kind in _SPECIAL_OWNER_TOKENS:
            self._advance()
            return ast.OwnerAst(_SPECIAL_OWNER_TOKENS[tok.kind], tok.loc)
        ident = self._expect(TokenKind.IDENT, "owner")
        return ast.OwnerAst(ident.text, ident.loc)

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def parse_block(self) -> ast.Block:
        start = self._expect(TokenKind.LBRACE).loc
        stmts: List[ast.Stmt] = []
        while not self._at(TokenKind.RBRACE):
            stmts.append(self.parse_stmt())
        self._expect(TokenKind.RBRACE)
        return ast.Block(stmts, self._loc_from(start))

    def parse_stmt(self) -> ast.Stmt:
        tok = self._peek()
        if tok.kind is TokenKind.LBRACE:
            return self.parse_block()
        if tok.kind is TokenKind.IF:
            return self._parse_if()
        if tok.kind is TokenKind.WHILE:
            return self._parse_while()
        if tok.kind is TokenKind.RETURN:
            return self._parse_return()
        if tok.kind is TokenKind.FORK:
            return self._parse_fork(realtime=False)
        if tok.kind is TokenKind.RT:
            start = self._advance().loc
            self._expect(TokenKind.FORK, "'fork' after 'RT'")
            return self._parse_fork_rest(realtime=True, start=start)
        if tok.kind is TokenKind.LPAREN:
            return self._parse_region_stmt()
        if tok.kind in _PRIM_TYPE_TOKENS or tok.kind is TokenKind.RHANDLE:
            return self._parse_local_decl()
        if tok.kind is TokenKind.IDENT:
            decl = self._try_parse_local_decl()
            if decl is not None:
                return decl
        return self._parse_expr_or_assign_stmt()

    def _parse_if(self) -> ast.If:
        start = self._expect(TokenKind.IF).loc
        self._expect(TokenKind.LPAREN)
        cond = self.parse_expr()
        self._expect(TokenKind.RPAREN)
        then_body = self.parse_block()
        else_body = None
        if self._accept(TokenKind.ELSE):
            if self._at(TokenKind.IF):
                nested = self._parse_if()
                else_body = ast.Block([nested], nested.loc)
            else:
                else_body = self.parse_block()
        return ast.If(cond, then_body, else_body, self._loc_from(start))

    def _parse_while(self) -> ast.While:
        start = self._expect(TokenKind.WHILE).loc
        self._expect(TokenKind.LPAREN)
        cond = self.parse_expr()
        self._expect(TokenKind.RPAREN)
        body = self.parse_block()
        return ast.While(cond, body, self._loc_from(start))

    def _parse_return(self) -> ast.Return:
        start = self._expect(TokenKind.RETURN).loc
        value = None
        if not self._at(TokenKind.SEMI):
            value = self.parse_expr()
        self._expect(TokenKind.SEMI)
        return ast.Return(value, self._loc_from(start))

    def _parse_fork(self, realtime: bool) -> ast.Fork:
        start = self._expect(TokenKind.FORK).loc
        return self._parse_fork_rest(realtime, start)

    def _parse_fork_rest(self, realtime: bool, start: Loc) -> ast.Fork:
        call = self.parse_expr()
        if not isinstance(call, ast.Invoke):
            raise ParseError("fork requires a method invocation",
                             loc_span(self._loc_from(start)))
        self._expect(TokenKind.SEMI)
        return ast.Fork(call, realtime, self._loc_from(start))

    def _parse_region_stmt(self) -> ast.Stmt:
        """Region creation or subregion entry:

        * ``(RHandle<r> h) { ... }``
        * ``(RHandle<Kind : LT(100) r> h) { ... }``
        * ``(RHandle<[Kind] r2> h2 = [new] h.sub) { ... }``
        """
        start = self._expect(TokenKind.LPAREN).loc
        self._expect(TokenKind.RHANDLE, "'RHandle'")
        self._expect(TokenKind.LANGLE)
        kind: Optional[ast.KindAst] = None
        policy: Optional[ast.PolicyAst] = None
        first = self._expect(TokenKind.IDENT, "region kind or region name")
        if self._at(TokenKind.RANGLE):
            region_name = first.text
        else:
            args: Tuple[ast.OwnerAst, ...] = ()
            if self._at(TokenKind.LANGLE):
                args = tuple(self._parse_owner_args())
            if self._accept(TokenKind.COLON):
                policy = self._parse_policy()
            kind = ast.KindAst(first.text, args, False, first.loc)
            region_name = self._expect(TokenKind.IDENT, "region name").text
        self._expect(TokenKind.RANGLE)
        handle_name = self._expect(TokenKind.IDENT, "handle name").text
        if self._accept(TokenKind.ASSIGN):
            fresh = self._accept(TokenKind.NEW) is not None
            parent = self._parse_postfix(self._parse_primary())
            if not isinstance(parent, ast.FieldRead):
                raise ParseError(
                    "subregion entry requires 'handle.subregion'",
                    loc_span(self._loc_from(start)))
            self._expect(TokenKind.RPAREN)
            body = self.parse_block()
            return ast.SubregionStmt(kind, region_name, handle_name,
                                     parent.target, parent.field_name,
                                     fresh, body, self._loc_from(start))
        self._expect(TokenKind.RPAREN)
        body = self.parse_block()
        return ast.RegionStmt(kind, policy, region_name, handle_name, body,
                              self._loc_from(start))

    def _parse_local_decl(self) -> ast.LocalDecl:
        start = self._peek().loc
        declared_type = self.parse_type()
        name = self._expect(TokenKind.IDENT, "variable name").text
        init = None
        if self._accept(TokenKind.ASSIGN):
            init = self.parse_expr()
        self._expect(TokenKind.SEMI)
        return ast.LocalDecl(declared_type, name, init,
                             self._loc_from(start))

    def _try_parse_local_decl(self) -> Optional[ast.LocalDecl]:
        """Backtracking disambiguation of ``T<o> v = e;`` vs expressions."""
        if self._peek(1).kind is TokenKind.IDENT:
            return self._parse_local_decl()
        if self._peek(1).kind is not TokenKind.LANGLE:
            return None
        saved = self.index
        try:
            return self._parse_local_decl()
        except ParseError:
            self.index = saved
            return None

    def _parse_expr_or_assign_stmt(self) -> ast.Stmt:
        start = self._peek().loc
        expr = self.parse_expr()
        if self._accept(TokenKind.ASSIGN):
            value = self.parse_expr()
            self._expect(TokenKind.SEMI)
            loc = self._loc_from(start)
            if isinstance(expr, ast.VarRef):
                return ast.AssignLocal(expr.name, value, loc)
            if isinstance(expr, ast.FieldRead):
                return ast.AssignField(expr.target, expr.field_name, value,
                                       loc)
            raise ParseError("invalid assignment target", loc_span(loc))
        self._expect(TokenKind.SEMI)
        return ast.ExprStmt(expr, self._loc_from(start))

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        return self._parse_binary_rhs(self._parse_unary(), 0)

    def _parse_binary_rhs(self, left: ast.Expr,
                          min_prec: int) -> ast.Expr:
        # precedence climbing over _BIN_PREC instead of one recursion
        # level per precedence tier; all operators are left-associative,
        # so the trees are identical to the old ladder's
        prec_map = _BIN_PREC
        tokens = self.tokens
        while True:
            entry = prec_map.get(tokens[self.index].kind)
            if entry is None or entry[0] < min_prec:
                return left
            prec, op = entry
            self._advance()
            right = self._parse_unary()
            while True:
                nxt = prec_map.get(tokens[self.index].kind)
                if nxt is None or nxt[0] <= prec:
                    break
                right = self._parse_binary_rhs(right, nxt[0])
            left = ast.Binary(op, left, right,
                              merge_locs(left.loc, right.loc))

    def _parse_unary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind is TokenKind.BANG:
            self._advance()
            operand = self._parse_unary()
            return ast.Unary("!", operand, merge_locs(tok.loc, operand.loc))
        if tok.kind is TokenKind.MINUS:
            self._advance()
            operand = self._parse_unary()
            return ast.Unary("-", operand, merge_locs(tok.loc, operand.loc))
        return self._parse_postfix(self._parse_primary())

    def _parse_postfix(self, expr: ast.Expr) -> ast.Expr:
        while self._at(TokenKind.DOT):
            self._advance()
            name = self._expect(TokenKind.IDENT, "member name").text
            if self._at(TokenKind.LPAREN):
                args = self._parse_call_args()
                expr = ast.Invoke(expr, name, (), args,
                                  self._loc_from(expr.loc))
            elif self._at(TokenKind.LANGLE):
                owner_args = self._try_parse_owner_call(expr, name)
                if owner_args is None:
                    expr = ast.FieldRead(expr, name,
                                         self._loc_from(expr.loc))
                    return expr  # '<' is a comparison; stop postfix chain
                expr = owner_args
            else:
                expr = ast.FieldRead(expr, name, self._loc_from(expr.loc))
        return expr

    def _try_parse_owner_call(self, target: ast.Expr,
                              name: str) -> Optional[ast.Invoke]:
        """Parse ``.mn<o1, ...>(args)``; rolls back if the ``<`` turns out
        to be a comparison operator."""
        saved = self.index
        try:
            owners = tuple(self._parse_owner_args())
            if not self._at(TokenKind.LPAREN):
                raise ParseError("not an owner-instantiated call",
                                 self._peek().span)
        except ParseError:
            self.index = saved
            return None
        args = self._parse_call_args()
        return ast.Invoke(target, name, owners, args,
                          self._loc_from(target.loc))

    def _parse_call_args(self) -> Tuple[ast.Expr, ...]:
        self._expect(TokenKind.LPAREN)
        args: List[ast.Expr] = []
        while not self._at(TokenKind.RPAREN):
            if args:
                self._expect(TokenKind.COMMA)
            args.append(self.parse_expr())
        self._expect(TokenKind.RPAREN)
        return tuple(args)

    def _parse_primary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind is TokenKind.INT_LIT:
            self._advance()
            return ast.IntLit(int(tok.text), tok.loc)
        if tok.kind is TokenKind.FLOAT_LIT:
            self._advance()
            return ast.FloatLit(float(tok.text), tok.loc)
        if tok.kind is TokenKind.TRUE:
            self._advance()
            return ast.BoolLit(True, tok.loc)
        if tok.kind is TokenKind.FALSE:
            self._advance()
            return ast.BoolLit(False, tok.loc)
        if tok.kind is TokenKind.NULL:
            self._advance()
            return ast.NullLit(tok.loc)
        if tok.kind is TokenKind.THIS:
            self._advance()
            return ast.ThisRef(tok.loc)
        if tok.kind is TokenKind.NEW:
            return self._parse_new()
        if tok.kind is TokenKind.LPAREN:
            self._advance()
            inner = self.parse_expr()
            self._expect(TokenKind.RPAREN)
            return inner
        if tok.kind is TokenKind.IDENT:
            self._advance()
            if tok.text in BUILTIN_FUNCTIONS and self._at(TokenKind.LPAREN):
                args = self._parse_call_args()
                return ast.BuiltinCall(tok.text, args,
                                       self._loc_from(tok.loc))
            return ast.VarRef(tok.text, tok.loc)
        raise ParseError(f"unexpected token {tok.text!r} in expression",
                         tok.span)

    def _parse_new(self) -> ast.NewExpr:
        start = self._expect(TokenKind.NEW).loc
        name = self._expect(TokenKind.IDENT, "class name").text
        owners: Tuple[ast.OwnerAst, ...] = ()
        if self._at(TokenKind.LANGLE):
            owners = tuple(self._parse_owner_args())
        args: Tuple[ast.Expr, ...] = ()
        if self._at(TokenKind.LPAREN):
            args = self._parse_call_args()
        return ast.NewExpr(name, owners, args, self._loc_from(start))


def parse_program(text: str, filename: str = "<input>",
                  start_line: int = 1,
                  start_col: int = 1) -> ast.Program:
    """Parse a full core-language program from source text.

    ``start_line``/``start_col`` place the first character of ``text``
    at that position — used by the incremental analysis cache to parse
    a class-declaration *slice* of a file with full-file locations."""
    tokens = tokenize(text, filename, start_line, start_col)
    return Parser(tokens, filename, text).parse_program()
