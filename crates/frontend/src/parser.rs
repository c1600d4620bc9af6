//! Recursive-descent parser for the MATLAB subset (paper pass 1).
//!
//! The grammar follows MATLAB's operator precedence:
//!
//! ```text
//! lowest   |        (element-wise or)
//!          &        (element-wise and)
//!          == ~= < <= > >=
//!          :        (range construction)
//!          + -      (binary)
//!          * / \ .* ./ .\
//!          unary + - ~
//!          ^ .^     (left-associative)
//! highest  postfix ' .'  and primaries
//! ```
//!
//! As in the paper, `name(args)` is parsed uniformly as a *call*;
//! identifier resolution later decides whether it is really matrix
//! indexing. `end` is a statement-block terminator except inside index
//! parentheses, where it denotes the last element of a dimension.
//!
//! Restriction carried over from the paper (§3): matrix-literal
//! elements must be separated by commas; white-space separation is a
//! parse error, reported as such.

use crate::ast::*;
use crate::error::{FrontendError, FrontendErrorKind, Result};
use crate::lexer::tokenize;
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// Deepest tree the parser builds. Every level counts against the one
/// limit: parenthesised, argument and matrix-element expressions,
/// unary-operator chains, `if`/`for`/`while`/function blocks, and —
/// because they deepen the tree just the same — each link of a binary
/// operator, transpose or `elseif` chain. Recursive descent (here and
/// in every later pass over the tree) spends stack per level, and
/// `otterd` compiles client scripts on 2 MiB threads, so depth is
/// bounded rather than left to overflow the stack and abort the
/// process. Measured on a 2 MiB thread in an unoptimised build: the
/// costliest production, nested calls, compiles end to end down to
/// depth 58 (chains to 137, blocks to 142); optimised builds reach
/// about ten times deeper.
pub const MAX_NESTING: usize = 40;

/// Parser state over a scanned token stream.
pub struct Parser {
    toks: Vec<Token>,
    pos: usize,
    /// Depth of the tree under construction (see [`MAX_NESTING`]).
    depth: usize,
    /// Nesting depth of index/call parentheses — controls whether
    /// `end` is a value and whether newlines are ignored.
    paren_depth: u32,
    /// Nesting depth of `[...]` matrix literals.
    bracket_depth: u32,
}

impl Parser {
    pub fn new(toks: Vec<Token>) -> Self {
        Parser {
            toks,
            pos: 0,
            depth: 0,
            paren_depth: 0,
            bracket_depth: 0,
        }
    }

    /// Parse a complete M-file.
    pub fn parse_file(mut self) -> Result<SourceFile> {
        let mut script = Block::new();
        let mut functions = Vec::new();
        self.skip_separators();
        while !self.at(&TokenKind::Eof) {
            if self.at(&TokenKind::Function) {
                functions.push(self.function_def()?);
            } else if !functions.is_empty() {
                // Statements after a function definition belong to that
                // function in classic M-files; function_def consumes
                // them, so reaching here means a stray token.
                return Err(self.err_expected("`function` or end of file"));
            } else {
                script.push(self.statement()?);
            }
            self.skip_separators();
        }
        Ok(SourceFile { script, functions })
    }

    /// Take the tree under construction one level deeper, or refuse at
    /// [`MAX_NESTING`].
    fn deepen(&mut self) -> Result<()> {
        if self.depth == MAX_NESTING {
            return Err(FrontendError::new(
                FrontendErrorKind::TooDeep(MAX_NESTING),
                self.peek_span(),
            ));
        }
        self.depth += 1;
        Ok(())
    }

    /// Run one recursive production a level deeper.
    fn nested<T>(&mut self, production: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        self.deepen()?;
        let out = production(self);
        self.depth -= 1;
        out
    }

    // ---- token plumbing -------------------------------------------------

    fn peek(&self) -> &TokenKind {
        &self.toks[self.pos].kind
    }

    fn peek_span(&self) -> Span {
        self.toks[self.pos].span
    }

    fn at(&self, k: &TokenKind) -> bool {
        self.peek() == k
    }

    fn bump(&mut self) -> Token {
        let t = self.toks[self.pos].clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, k: &TokenKind) -> bool {
        if self.at(k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, k: &TokenKind) -> Result<Token> {
        if self.at(k) {
            Ok(self.bump())
        } else {
            Err(self.err_expected(&k.describe()))
        }
    }

    fn err_expected(&self, what: &str) -> FrontendError {
        FrontendError::new(
            FrontendErrorKind::Expected {
                expected: what.to_string(),
                found: self.peek().describe(),
            },
            self.peek_span(),
        )
    }

    /// Skip newlines/semis/commas between statements.
    fn skip_separators(&mut self) {
        while matches!(
            self.peek(),
            TokenKind::Newline | TokenKind::Semi | TokenKind::Comma
        ) {
            self.bump();
        }
    }

    /// Inside parens/brackets MATLAB joins lines implicitly only after
    /// operators; our lexer already strips `...` continuations, and for
    /// simplicity we ignore newlines inside call/index parens (but NOT
    /// inside matrix brackets, where they separate rows).
    fn skip_newlines_in_parens(&mut self) {
        if self.paren_depth > 0 && self.bracket_depth == 0 {
            while self.at(&TokenKind::Newline) {
                self.bump();
            }
        }
    }

    // ---- statements -----------------------------------------------------

    fn statement(&mut self) -> Result<Stmt> {
        let start = self.peek_span();
        match self.peek().clone() {
            TokenKind::If => self.if_stmt(start),
            TokenKind::While => self.while_stmt(start),
            TokenKind::For => self.for_stmt(start),
            TokenKind::Break => {
                self.bump();
                self.finish_simple(StmtKind::Break, start)
            }
            TokenKind::Continue => {
                self.bump();
                self.finish_simple(StmtKind::Continue, start)
            }
            TokenKind::Return => {
                self.bump();
                self.finish_simple(StmtKind::Return, start)
            }
            TokenKind::Global => {
                self.bump();
                let mut names = Vec::new();
                loop {
                    // A name only belongs to the `global` list if it is
                    // not the start of a new assignment (`, x = ...`).
                    let next_is_eq =
                        self.toks.get(self.pos + 1).map(|t| &t.kind) == Some(&TokenKind::Eq);
                    match self.peek().clone() {
                        TokenKind::Ident(n) if !next_is_eq => {
                            self.bump();
                            names.push(n);
                        }
                        TokenKind::Comma => {
                            // Consume the comma only when it separates
                            // two global names; otherwise it terminates
                            // the statement (handled by finish_stmt).
                            let after = self.toks.get(self.pos + 1).map(|t| t.kind.clone());
                            let after2 = self.toks.get(self.pos + 2).map(|t| t.kind.clone());
                            match (after, after2) {
                                (Some(TokenKind::Ident(_)), Some(k)) if k != TokenKind::Eq => {
                                    self.bump();
                                }
                                _ => break,
                            }
                        }
                        _ => break,
                    }
                }
                if names.is_empty() {
                    return Err(self.err_expected("variable name after `global`"));
                }
                self.finish_simple(StmtKind::Global(names), start)
            }
            TokenKind::LBracket => self.bracket_stmt(start),
            _ => self.expr_or_assign_stmt(start),
        }
    }

    /// Consume the trailing `;` / `,` / newline of a simple statement
    /// and record whether MATLAB would echo the result.
    fn finish_stmt(&mut self, kind: StmtKind, start: Span) -> Result<Stmt> {
        let display = match self.peek() {
            TokenKind::Semi => {
                self.bump();
                false
            }
            TokenKind::Comma | TokenKind::Newline => {
                self.bump();
                true
            }
            TokenKind::Eof
            | TokenKind::End
            | TokenKind::Else
            | TokenKind::ElseIf
            | TokenKind::Function => true,
            _ => return Err(self.err_expected("`;`, `,`, or end of line")),
        };
        let span = start.to(self.toks[self.pos.saturating_sub(1)].span);
        Ok(Stmt {
            kind,
            span,
            display,
        })
    }

    fn finish_simple(&mut self, kind: StmtKind, start: Span) -> Result<Stmt> {
        self.finish_stmt(kind, start)
    }

    /// `[` at statement start: either a multi-assignment
    /// `[a, b] = f(x)` or a matrix-literal expression statement.
    fn bracket_stmt(&mut self, start: Span) -> Result<Stmt> {
        // Parse as an expression first; a following `=` retrofits it
        // into a multi-assign target list.
        let expr = self.expression()?;
        if self.at(&TokenKind::Eq) {
            self.bump();
            let ExprKind::Matrix(rows) = expr.kind else {
                return Err(self.err_expected("assignment target list"));
            };
            if rows.len() != 1 {
                return Err(FrontendError::new(
                    FrontendErrorKind::Unsupported(
                        "multi-assignment target list must be a single row".into(),
                    ),
                    expr.span,
                ));
            }
            let mut lhs = Vec::new();
            for e in rows.into_iter().next().unwrap() {
                lhs.push(self.expr_to_lvalue(e)?);
            }
            let rhs = self.expression()?;
            self.finish_stmt(StmtKind::MultiAssign { lhs, rhs }, start)
        } else {
            self.finish_stmt(StmtKind::Expr(expr), start)
        }
    }

    fn expr_to_lvalue(&self, e: Expr) -> Result<LValue> {
        match e.kind {
            ExprKind::Ident(name) => Ok(LValue {
                name,
                indices: None,
                span: e.span,
            }),
            ExprKind::Call { callee, args } | ExprKind::Index { base: callee, args } => {
                Ok(LValue {
                    name: callee,
                    indices: Some(args),
                    span: e.span,
                })
            }
            _ => Err(FrontendError::new(
                FrontendErrorKind::Expected {
                    expected: "assignable target (variable or indexed variable)".into(),
                    found: "expression".into(),
                },
                e.span,
            )),
        }
    }

    fn expr_or_assign_stmt(&mut self, start: Span) -> Result<Stmt> {
        let expr = self.expression()?;
        if self.at(&TokenKind::Eq) {
            self.bump();
            let lhs = self.expr_to_lvalue(expr)?;
            let rhs = self.expression()?;
            self.finish_stmt(StmtKind::Assign { lhs, rhs }, start)
        } else {
            self.finish_stmt(StmtKind::Expr(expr), start)
        }
    }

    fn if_stmt(&mut self, start: Span) -> Result<Stmt> {
        self.expect(&TokenKind::If)?;
        let mut arms = Vec::new();
        let cond = self.expression()?;
        self.skip_separators();
        let body = self.block(&[TokenKind::ElseIf, TokenKind::Else, TokenKind::End])?;
        arms.push((cond, body));
        let mut else_body = None;
        let outer = self.depth;
        loop {
            match self.peek() {
                TokenKind::ElseIf => {
                    // Each further arm lowers to an `if` nested in the
                    // previous arm's `else`.
                    self.deepen()?;
                    self.bump();
                    let c = self.expression()?;
                    self.skip_separators();
                    let b = self.block(&[TokenKind::ElseIf, TokenKind::Else, TokenKind::End])?;
                    arms.push((c, b));
                }
                TokenKind::Else => {
                    self.bump();
                    self.skip_separators();
                    else_body = Some(self.block(&[TokenKind::End])?);
                    self.expect(&TokenKind::End)?;
                    break;
                }
                TokenKind::End => {
                    self.bump();
                    break;
                }
                _ => return Err(self.err_expected("`elseif`, `else`, or `end`")),
            }
        }
        self.depth = outer;
        self.finish_stmt(StmtKind::If { arms, else_body }, start)
    }

    fn while_stmt(&mut self, start: Span) -> Result<Stmt> {
        self.expect(&TokenKind::While)?;
        let cond = self.expression()?;
        self.skip_separators();
        let body = self.block(&[TokenKind::End])?;
        self.expect(&TokenKind::End)?;
        self.finish_stmt(StmtKind::While { cond, body }, start)
    }

    fn for_stmt(&mut self, start: Span) -> Result<Stmt> {
        self.expect(&TokenKind::For)?;
        let TokenKind::Ident(var) = self.peek().clone() else {
            return Err(self.err_expected("loop variable"));
        };
        self.bump();
        self.expect(&TokenKind::Eq)?;
        let iter = self.expression()?;
        self.skip_separators();
        let body = self.block(&[TokenKind::End])?;
        self.expect(&TokenKind::End)?;
        self.finish_stmt(StmtKind::For { var, iter, body }, start)
    }

    /// Parse statements until one of `terminators` (not consumed).
    fn block(&mut self, terminators: &[TokenKind]) -> Result<Block> {
        self.nested(|p| {
            let mut stmts = Block::new();
            p.skip_separators();
            while !terminators.contains(p.peek()) {
                if p.at(&TokenKind::Eof) {
                    return Err(p.err_expected("`end`"));
                }
                stmts.push(p.statement()?);
                p.skip_separators();
            }
            Ok(stmts)
        })
    }

    fn function_def(&mut self) -> Result<Function> {
        let start = self.peek_span();
        self.expect(&TokenKind::Function)?;
        // Three header forms:
        //   function name(params)
        //   function out = name(params)
        //   function [o1, o2] = name(params)
        let mut outs = Vec::new();
        let name;
        match self.peek().clone() {
            TokenKind::LBracket => {
                self.bump();
                loop {
                    let TokenKind::Ident(o) = self.peek().clone() else {
                        return Err(self.err_expected("output variable name"));
                    };
                    self.bump();
                    outs.push(o);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(&TokenKind::RBracket)?;
                self.expect(&TokenKind::Eq)?;
                let TokenKind::Ident(n) = self.peek().clone() else {
                    return Err(self.err_expected("function name"));
                };
                self.bump();
                name = n;
            }
            TokenKind::Ident(first) => {
                self.bump();
                if self.eat(&TokenKind::Eq) {
                    outs.push(first);
                    let TokenKind::Ident(n) = self.peek().clone() else {
                        return Err(self.err_expected("function name"));
                    };
                    self.bump();
                    name = n;
                } else {
                    name = first;
                }
            }
            _ => return Err(self.err_expected("function name")),
        }
        let mut params = Vec::new();
        if self.eat(&TokenKind::LParen) {
            if !self.at(&TokenKind::RParen) {
                loop {
                    let TokenKind::Ident(p) = self.peek().clone() else {
                        return Err(self.err_expected("parameter name"));
                    };
                    self.bump();
                    params.push(p);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        self.skip_separators();
        // Classic (pre-R2006) M-file functions have no closing `end`;
        // the body runs to the next `function` or end of file. We also
        // accept an explicit trailing `end`.
        let body = self.block(&[TokenKind::Function, TokenKind::Eof, TokenKind::End])?;
        if self.at(&TokenKind::End) {
            self.bump();
        }
        let span = start.to(self.toks[self.pos.saturating_sub(1)].span);
        Ok(Function {
            name,
            params,
            outs,
            body,
            span,
        })
    }

    // ---- expressions ----------------------------------------------------

    /// Entry point: lowest-precedence expression.
    pub fn expression(&mut self) -> Result<Expr> {
        self.nested(Self::or_expr)
    }

    /// A left-associative chain `operand (op operand)*`. The parser
    /// loops rather than recurses here, but every link pushes the
    /// first operand one level further down the tree's left spine, so
    /// links count against [`MAX_NESTING`] like any other level.
    fn binary_chain(
        &mut self,
        operand: fn(&mut Self) -> Result<Expr>,
        op_of: fn(&TokenKind) -> Option<BinOp>,
    ) -> Result<Expr> {
        let mut lhs = operand(self)?;
        let outer = self.depth;
        while let Some(op) = op_of(self.peek()) {
            self.deepen()?;
            self.bump();
            self.skip_newlines_in_parens();
            let rhs = operand(self)?;
            lhs = binary(op, lhs, rhs);
        }
        self.depth = outer;
        Ok(lhs)
    }

    fn or_expr(&mut self) -> Result<Expr> {
        self.binary_chain(Self::and_expr, |t| match t {
            TokenKind::Pipe => Some(BinOp::Or),
            _ => None,
        })
    }

    fn and_expr(&mut self) -> Result<Expr> {
        self.binary_chain(Self::cmp_expr, |t| match t {
            TokenKind::Amp => Some(BinOp::And),
            _ => None,
        })
    }

    fn cmp_expr(&mut self) -> Result<Expr> {
        self.binary_chain(Self::range_expr, |t| match t {
            TokenKind::EqEq => Some(BinOp::Eq),
            TokenKind::NotEq => Some(BinOp::Ne),
            TokenKind::Lt => Some(BinOp::Lt),
            TokenKind::LtEq => Some(BinOp::Le),
            TokenKind::Gt => Some(BinOp::Gt),
            TokenKind::GtEq => Some(BinOp::Ge),
            _ => None,
        })
    }

    /// `a:b` or `a:b:c`. The colon in MATLAB binds looser than
    /// arithmetic but tighter than comparison.
    fn range_expr(&mut self) -> Result<Expr> {
        let first = self.add_expr()?;
        if !self.at(&TokenKind::Colon) {
            return Ok(first);
        }
        self.bump();
        let second = self.add_expr()?;
        if self.at(&TokenKind::Colon) {
            self.bump();
            let third = self.add_expr()?;
            let span = first.span.to(third.span);
            Ok(Expr::new(
                ExprKind::Range {
                    start: Box::new(first),
                    step: Some(Box::new(second)),
                    stop: Box::new(third),
                },
                span,
            ))
        } else {
            let span = first.span.to(second.span);
            Ok(Expr::new(
                ExprKind::Range {
                    start: Box::new(first),
                    step: None,
                    stop: Box::new(second),
                },
                span,
            ))
        }
    }

    fn add_expr(&mut self) -> Result<Expr> {
        self.binary_chain(Self::mul_expr, |t| match t {
            TokenKind::Plus => Some(BinOp::Add),
            TokenKind::Minus => Some(BinOp::Sub),
            _ => None,
        })
    }

    fn mul_expr(&mut self) -> Result<Expr> {
        self.binary_chain(Self::unary_expr, |t| match t {
            TokenKind::Star => Some(BinOp::Mul),
            TokenKind::Slash => Some(BinOp::Div),
            TokenKind::Backslash => Some(BinOp::LeftDiv),
            TokenKind::DotStar => Some(BinOp::ElemMul),
            TokenKind::DotSlash => Some(BinOp::ElemDiv),
            TokenKind::DotBackslash => Some(BinOp::ElemLeftDiv),
            _ => None,
        })
    }

    fn unary_expr(&mut self) -> Result<Expr> {
        let start = self.peek_span();
        let op = match self.peek() {
            TokenKind::Minus => Some(UnOp::Neg),
            TokenKind::Plus => Some(UnOp::Plus),
            TokenKind::Not => Some(UnOp::Not),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let operand = self.nested(Self::unary_expr)?;
            let span = start.to(operand.span);
            Ok(Expr::new(
                ExprKind::Unary {
                    op,
                    operand: Box::new(operand),
                },
                span,
            ))
        } else {
            self.pow_expr()
        }
    }

    fn pow_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.postfix_expr()?;
        let outer = self.depth;
        loop {
            let op = match self.peek() {
                TokenKind::Caret => BinOp::Pow,
                TokenKind::DotCaret => BinOp::ElemPow,
                _ => break,
            };
            self.deepen()?;
            self.bump();
            self.skip_newlines_in_parens();
            // MATLAB allows a unary sign directly after `^`: 2^-3.
            let rhs = if matches!(
                self.peek(),
                TokenKind::Minus | TokenKind::Plus | TokenKind::Not
            ) {
                self.unary_expr()?
            } else {
                self.postfix_expr()?
            };
            lhs = binary(op, lhs, rhs);
        }
        self.depth = outer;
        Ok(lhs)
    }

    fn postfix_expr(&mut self) -> Result<Expr> {
        let mut e = self.primary_expr()?;
        let outer = self.depth;
        loop {
            let op = match self.peek() {
                TokenKind::Transpose => TransposeOp::Conjugate,
                TokenKind::DotTranspose => TransposeOp::Plain,
                _ => break,
            };
            self.deepen()?;
            let t = self.bump();
            let span = e.span.to(t.span);
            e = Expr::new(
                ExprKind::Transpose {
                    op,
                    operand: Box::new(e),
                },
                span,
            );
        }
        self.depth = outer;
        Ok(e)
    }

    fn primary_expr(&mut self) -> Result<Expr> {
        let span = self.peek_span();
        match self.peek().clone() {
            TokenKind::Number { value, is_int } => {
                self.bump();
                Ok(Expr::new(ExprKind::Number { value, is_int }, span))
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok(Expr::new(ExprKind::Str(s), span))
            }
            TokenKind::End if self.paren_depth > 0 => {
                self.bump();
                Ok(Expr::new(ExprKind::EndKeyword, span))
            }
            TokenKind::Ident(name) => {
                self.bump();
                if self.at(&TokenKind::LParen) {
                    let args = self.call_args()?;
                    let end = self.toks[self.pos.saturating_sub(1)].span;
                    Ok(Expr::new(
                        ExprKind::Call { callee: name, args },
                        span.to(end),
                    ))
                } else {
                    Ok(Expr::new(ExprKind::Ident(name), span))
                }
            }
            TokenKind::LParen => {
                self.bump();
                self.paren_depth += 1;
                self.skip_newlines_in_parens();
                let inner = self.expression()?;
                self.skip_newlines_in_parens();
                self.paren_depth -= 1;
                self.expect(&TokenKind::RParen)?;
                Ok(inner)
            }
            TokenKind::LBracket => self.matrix_literal(span),
            _ => Err(self.err_expected("an expression")),
        }
    }

    /// Arguments of `name(...)`: expressions, bare `:` slices, and
    /// `end` arithmetic are all permitted.
    fn call_args(&mut self) -> Result<Vec<Expr>> {
        self.expect(&TokenKind::LParen)?;
        self.paren_depth += 1;
        let mut args = Vec::new();
        self.skip_newlines_in_parens();
        if !self.at(&TokenKind::RParen) {
            loop {
                self.skip_newlines_in_parens();
                if self.at(&TokenKind::Colon)
                    && matches!(
                        self.toks[self.pos + 1].kind,
                        TokenKind::Comma | TokenKind::RParen
                    )
                {
                    let s = self.bump().span;
                    args.push(Expr::new(ExprKind::Colon, s));
                } else {
                    args.push(self.expression()?);
                }
                self.skip_newlines_in_parens();
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.paren_depth -= 1;
        self.expect(&TokenKind::RParen)?;
        Ok(args)
    }

    /// `[a, b; c, d]` — rows separated by `;` or newline, elements by
    /// commas (the paper's documented restriction).
    fn matrix_literal(&mut self, start: Span) -> Result<Expr> {
        self.expect(&TokenKind::LBracket)?;
        self.bracket_depth += 1;
        let mut rows: Vec<Vec<Expr>> = Vec::new();
        let mut row: Vec<Expr> = Vec::new();
        // Leading newlines inside the bracket are cosmetic.
        while self.at(&TokenKind::Newline) {
            self.bump();
        }
        loop {
            match self.peek() {
                TokenKind::RBracket => {
                    self.bump();
                    break;
                }
                TokenKind::Semi | TokenKind::Newline => {
                    self.bump();
                    // Collapse runs of row separators.
                    while matches!(self.peek(), TokenKind::Semi | TokenKind::Newline) {
                        self.bump();
                    }
                    if !row.is_empty() {
                        rows.push(std::mem::take(&mut row));
                    }
                }
                TokenKind::Comma => {
                    self.bump();
                }
                _ => {
                    if !row.is_empty() {
                        // Two expressions without an intervening comma:
                        // the white-space-delimiter form we reject.
                        let prev_comma = matches!(
                            self.toks[self.pos.saturating_sub(1)].kind,
                            TokenKind::Comma
                                | TokenKind::Semi
                                | TokenKind::Newline
                                | TokenKind::LBracket
                        );
                        if !prev_comma {
                            self.bracket_depth -= 1;
                            return Err(FrontendError::new(
                                FrontendErrorKind::Unsupported(
                                    "white-space-delimited matrix elements; separate elements \
                                     with commas (Otter restriction, paper §3)"
                                        .into(),
                                ),
                                self.peek_span(),
                            ));
                        }
                    }
                    row.push(self.expression()?);
                }
            }
        }
        self.bracket_depth -= 1;
        if !row.is_empty() {
            rows.push(row);
        }
        let end = self.toks[self.pos.saturating_sub(1)].span;
        Ok(Expr::new(ExprKind::Matrix(rows), start.to(end)))
    }
}

fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
    let span = lhs.span.to(rhs.span);
    Expr::new(
        ExprKind::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        },
        span,
    )
}

/// Parse a complete M-file from source text.
pub fn parse(src: &str) -> Result<SourceFile> {
    Parser::new(tokenize(src)?).parse_file()
}

/// Parse a single expression (used by tests and the REPL example).
pub fn parse_expr(src: &str) -> Result<Expr> {
    let mut p = Parser::new(tokenize(src)?);
    let e = p.expression()?;
    if !matches!(
        p.peek(),
        TokenKind::Eof | TokenKind::Newline | TokenKind::Semi
    ) {
        return Err(p.err_expected("end of expression"));
    }
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expr(src: &str) -> Expr {
        parse_expr(src).unwrap()
    }

    fn script(src: &str) -> Block {
        parse(src).unwrap().script
    }

    #[test]
    fn precedence_mul_over_add() {
        let e = expr("a + b * c");
        let ExprKind::Binary {
            op: BinOp::Add,
            rhs,
            ..
        } = e.kind
        else {
            panic!("{e:?}")
        };
        assert!(matches!(rhs.kind, ExprKind::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn precedence_pow_over_unary() {
        // MATLAB: -2^2 == -4.
        let e = expr("-2^2");
        let ExprKind::Unary {
            op: UnOp::Neg,
            operand,
        } = e.kind
        else {
            panic!("{e:?}")
        };
        assert!(matches!(
            operand.kind,
            ExprKind::Binary { op: BinOp::Pow, .. }
        ));
    }

    #[test]
    fn pow_allows_signed_exponent() {
        let e = expr("2^-3");
        let ExprKind::Binary {
            op: BinOp::Pow,
            rhs,
            ..
        } = e.kind
        else {
            panic!("{e:?}")
        };
        assert!(matches!(rhs.kind, ExprKind::Unary { op: UnOp::Neg, .. }));
    }

    #[test]
    fn range_binds_looser_than_arithmetic() {
        // 1:n-1 is 1:(n-1).
        let e = expr("1:n-1");
        let ExprKind::Range { stop, step, .. } = e.kind else {
            panic!("{e:?}")
        };
        assert!(step.is_none());
        assert!(matches!(stop.kind, ExprKind::Binary { op: BinOp::Sub, .. }));
    }

    #[test]
    fn three_part_range() {
        let e = expr("0:0.1:2*pi");
        let ExprKind::Range { step, stop, .. } = e.kind else {
            panic!("{e:?}")
        };
        assert!(step.is_some());
        assert!(matches!(stop.kind, ExprKind::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn comparison_binds_looser_than_range() {
        // a < 1:5 parses as a < (1:5).
        let e = expr("a < 1:5");
        let ExprKind::Binary {
            op: BinOp::Lt, rhs, ..
        } = e.kind
        else {
            panic!("{e:?}")
        };
        assert!(matches!(rhs.kind, ExprKind::Range { .. }));
    }

    #[test]
    fn call_and_index_are_uniform() {
        let e = expr("d(i, j)");
        let ExprKind::Call { callee, args } = e.kind else {
            panic!("{e:?}")
        };
        assert_eq!(callee, "d");
        assert_eq!(args.len(), 2);
    }

    #[test]
    fn colon_slice_argument() {
        let e = expr("a(:, j)");
        let ExprKind::Call { args, .. } = e.kind else {
            panic!("{e:?}")
        };
        assert!(matches!(args[0].kind, ExprKind::Colon));
        assert!(matches!(args[1].kind, ExprKind::Ident(_)));
    }

    #[test]
    fn end_in_index() {
        let e = expr("v(2:end)");
        let ExprKind::Call { args, .. } = e.kind else {
            panic!("{e:?}")
        };
        let ExprKind::Range { stop, .. } = &args[0].kind else {
            panic!()
        };
        assert!(matches!(stop.kind, ExprKind::EndKeyword));
    }

    #[test]
    fn end_arithmetic_in_index() {
        let e = expr("v(end-1)");
        let ExprKind::Call { args, .. } = e.kind else {
            panic!("{e:?}")
        };
        assert!(matches!(
            args[0].kind,
            ExprKind::Binary { op: BinOp::Sub, .. }
        ));
    }

    #[test]
    fn transpose_postfix() {
        let e = expr("a' * b");
        let ExprKind::Binary {
            op: BinOp::Mul,
            lhs,
            ..
        } = e.kind
        else {
            panic!("{e:?}")
        };
        assert!(matches!(
            lhs.kind,
            ExprKind::Transpose {
                op: TransposeOp::Conjugate,
                ..
            }
        ));
    }

    #[test]
    fn matrix_literal_rows() {
        let e = expr("[1, 2; 3, 4]");
        let ExprKind::Matrix(rows) = e.kind else {
            panic!("{e:?}")
        };
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].len(), 2);
        assert_eq!(rows[1].len(), 2);
    }

    #[test]
    fn matrix_literal_newline_rows() {
        let e = expr("[1, 2\n3, 4]");
        let ExprKind::Matrix(rows) = e.kind else {
            panic!("{e:?}")
        };
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn empty_matrix() {
        let e = expr("[]");
        let ExprKind::Matrix(rows) = e.kind else {
            panic!("{e:?}")
        };
        assert!(rows.is_empty());
    }

    #[test]
    fn whitespace_delimited_elements_rejected() {
        // The paper's documented restriction.
        let err = parse_expr("[1 2]").unwrap_err();
        assert!(
            matches!(err.kind, FrontendErrorKind::Unsupported(_)),
            "{err}"
        );
    }

    #[test]
    fn assignment_statement() {
        let s = script("x = a + 1;\n");
        assert_eq!(s.len(), 1);
        let StmtKind::Assign { lhs, .. } = &s[0].kind else {
            panic!("{s:?}")
        };
        assert_eq!(lhs.name, "x");
        assert!(!s[0].display);
    }

    #[test]
    fn display_flag_tracks_semicolon() {
        let s = script("x = 1\ny = 2;");
        assert!(s[0].display);
        assert!(!s[1].display);
    }

    #[test]
    fn indexed_assignment() {
        let s = script("a(i, j) = a(i, j) / b(j, i);");
        let StmtKind::Assign { lhs, .. } = &s[0].kind else {
            panic!("{s:?}")
        };
        assert_eq!(lhs.name, "a");
        assert_eq!(lhs.indices.as_ref().unwrap().len(), 2);
    }

    #[test]
    fn multi_assignment() {
        let s = script("[q, r] = qr(a);");
        let StmtKind::MultiAssign { lhs, rhs } = &s[0].kind else {
            panic!("{s:?}")
        };
        assert_eq!(lhs.len(), 2);
        assert_eq!(lhs[0].name, "q");
        assert!(matches!(rhs.kind, ExprKind::Call { .. }));
    }

    #[test]
    fn if_elseif_else() {
        let s = script("if a < 1\nx = 1;\nelseif a < 2\nx = 2;\nelse\nx = 3;\nend");
        let StmtKind::If { arms, else_body } = &s[0].kind else {
            panic!("{s:?}")
        };
        assert_eq!(arms.len(), 2);
        assert!(else_body.is_some());
    }

    #[test]
    fn while_loop() {
        let s = script("while err > tol\nerr = err / 2;\nend");
        let StmtKind::While { body, .. } = &s[0].kind else {
            panic!("{s:?}")
        };
        assert_eq!(body.len(), 1);
    }

    #[test]
    fn for_loop_over_range() {
        let s = script("for i = 1:n\ns = s + i;\nend");
        let StmtKind::For { var, iter, body } = &s[0].kind else {
            panic!("{s:?}")
        };
        assert_eq!(var, "i");
        assert!(matches!(iter.kind, ExprKind::Range { .. }));
        assert_eq!(body.len(), 1);
    }

    #[test]
    fn nested_loops() {
        let s = script("for i = 1:n\nfor j = 1:n\na(i, j) = i + j;\nend\nend");
        let StmtKind::For { body, .. } = &s[0].kind else {
            panic!("{s:?}")
        };
        assert!(matches!(body[0].kind, StmtKind::For { .. }));
    }

    #[test]
    fn function_file() {
        let f = parse("function [s] = trapz2(x, y)\ns = sum(x) + sum(y);\n").unwrap();
        assert!(f.is_function_file());
        let func = &f.functions[0];
        assert_eq!(func.name, "trapz2");
        assert_eq!(func.params, vec!["x", "y"]);
        assert_eq!(func.outs, vec!["s"]);
        assert_eq!(func.body.len(), 1);
    }

    #[test]
    fn function_single_out_no_brackets() {
        let f = parse("function y = square(x)\ny = x .* x;\n").unwrap();
        assert_eq!(f.functions[0].outs, vec!["y"]);
        assert_eq!(f.functions[0].name, "square");
    }

    #[test]
    fn function_no_outputs() {
        let f = parse("function show(x)\ndisp(x);\n").unwrap();
        assert!(f.functions[0].outs.is_empty());
        assert_eq!(f.functions[0].name, "show");
    }

    #[test]
    fn multiple_functions_per_file() {
        let f =
            parse("function y = f(x)\ny = g(x) + 1;\n\nfunction y = g(x)\ny = x * 2;\n").unwrap();
        assert_eq!(f.functions.len(), 2);
        assert_eq!(f.functions[1].name, "g");
    }

    #[test]
    fn statements_separated_by_commas() {
        let s = script("a = 1, b = 2");
        assert_eq!(s.len(), 2);
        assert!(s[0].display);
    }

    #[test]
    fn break_continue_return() {
        let s = script("for i = 1:10\nif i > 5\nbreak;\nend\ncontinue;\nend\nreturn;");
        assert!(matches!(s.last().unwrap().kind, StmtKind::Return));
    }

    #[test]
    fn global_declaration() {
        let s = script("global tol, x = tol;");
        let StmtKind::Global(names) = &s[0].kind else {
            panic!("{s:?}")
        };
        assert_eq!(names, &vec!["tol".to_string()]);
    }

    #[test]
    fn paper_example_statement_parses() {
        // From §3: a = b * c + d(i,j);
        let s = script("a = b * c + d(i,j);");
        let StmtKind::Assign { rhs, .. } = &s[0].kind else {
            panic!("{s:?}")
        };
        let ExprKind::Binary {
            op: BinOp::Add,
            lhs,
            rhs: d,
        } = &rhs.kind
        else {
            panic!()
        };
        assert!(matches!(lhs.kind, ExprKind::Binary { op: BinOp::Mul, .. }));
        assert!(matches!(d.kind, ExprKind::Call { .. }));
    }

    #[test]
    fn missing_end_is_reported() {
        let err = parse("while x > 0\nx = x - 1;\n").unwrap_err();
        assert!(matches!(err.kind, FrontendErrorKind::Expected { .. }));
    }

    #[test]
    fn unbalanced_paren_is_reported() {
        assert!(parse_expr("(a + b").is_err());
    }

    #[test]
    fn error_spans_point_at_problem() {
        let err = parse("x = ;").unwrap_err();
        assert_eq!(err.span.line, 1);
        assert_eq!(err.span.col, 5);
    }

    /// `n` levels of one nesting production around a scalar.
    fn nest(open: &str, close: &str, n: usize) -> String {
        format!("x = {}1{};", open.repeat(n), close.repeat(n))
    }

    /// Parse on the 2 MiB stack an `otterd` connection thread has.
    fn parse_on_small_stack(src: String) -> Result<SourceFile> {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || parse(&src))
            .unwrap()
            .join()
            .expect("parser must not overflow its stack")
    }

    #[test]
    fn hostile_nesting_is_a_typed_error() {
        let blocks = format!(
            "{}x = 1;\n{}",
            "if 1\n".repeat(10_000),
            "end\n".repeat(10_000)
        );
        for src in [
            nest("(", ")", 10_000),
            nest("[", "]", 10_000),
            nest("abs(", ")", 10_000),
            nest("-", "", 10_000),
            nest("2^-", "", 10_000),
            nest("", "+1", 10_000),
            nest("", "'", 10_000),
            blocks,
        ] {
            let err = parse_on_small_stack(src).unwrap_err();
            assert_eq!(err.kind, FrontendErrorKind::TooDeep(MAX_NESTING));
            assert_eq!(err.message(), format!("nesting deeper than {MAX_NESTING}"));
        }
    }

    #[test]
    fn nesting_at_the_cap_parses() {
        // The assignment's right-hand side is level one.
        let inner = MAX_NESTING - 1;
        for (open, close) in [("(", ")"), ("abs(", ")"), ("-", ""), ("", "+1"), ("", "'")] {
            parse_on_small_stack(nest(open, close, inner)).expect("at the cap");
            let err = parse_on_small_stack(nest(open, close, inner + 1)).unwrap_err();
            assert_eq!(err.kind, FrontendErrorKind::TooDeep(MAX_NESTING));
        }
        let blocks = |n: usize| format!("{}x = 1;\n{}", "while 1\n".repeat(n), "end\n".repeat(n));
        parse_on_small_stack(blocks(inner)).expect("at the cap");
        assert!(parse_on_small_stack(blocks(inner + 1)).is_err());
    }
}
