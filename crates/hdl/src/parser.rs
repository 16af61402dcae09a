//! Recursive-descent parser for MiniHDL.
//!
//! # Grammar (EBNF-ish)
//!
//! ```text
//! design   := entity*
//! entity   := "entity" NAME "is" "port" "(" ports ")" ";"
//!             (signal | constant)* process* "end" [NAME] ";"
//! ports    := port (";" port)*
//! port     := NAME ("," NAME)* ":" ("in" | "out") type
//! type     := "bit" | "bits" "(" INT ")"
//! signal   := "signal" NAME ":" type [":=" INT] ";"
//! constant := "constant" NAME ":" type ":=" INT ";"
//! process  := ("comb" | "seq" "(" NAME ")") var* "begin" stmt* "end" ";"
//! var      := "var" NAME ":" type [":=" INT] ";"
//! stmt     := NAME [select] ("<=" | ":=") expr ";"
//!           | "if" expr "then" stmt* ("elsif" expr "then" stmt*)*
//!             ["else" stmt*] "end" "if" ";"
//!           | "case" expr "is" arm* ["when" "others" "=>" stmt*]
//!             "end" "case" ";"
//!           | "for" NAME "in" INT ".." INT "loop" stmt* "end" "loop" ";"
//!           | "null" ";"
//! arm      := "when" INT ("|" INT)* "=>" stmt*
//! select   := "[" expr "]" | "[" INT ":" INT "]"
//! ```
//!
//! Expression precedence, loosest first: logical (`and or xor nand nor
//! xnor`, left-associative), relational (`= /= < <= > >=`,
//! non-associative), additive (`+ - &`, left), multiplicative (`*`, left),
//! shifts (`sll`/`srl` by an integer), unary `not`, then atoms (literals,
//! names, `orr/andr/xorr(e)`, parenthesised expressions) with postfix
//! indexing `e[i]` and slicing `e[hi:lo]`.

use crate::ast::*;
use crate::error::{HdlError, Result};
use crate::lexer::{lex, Tok, Token};
use crate::span::Span;

/// Reserved words that cannot be used as names.
pub const KEYWORDS: &[&str] = &[
    "entity", "is", "port", "in", "out", "bit", "bits", "signal", "constant", "var", "comb",
    "seq", "begin", "end", "if", "then", "elsif", "else", "case", "when", "others", "for",
    "loop", "null", "and", "or", "xor", "nand", "nor", "xnor", "not", "sll", "srl", "orr",
    "andr", "xorr",
];

/// Returns `true` when `name` is a reserved word.
pub fn is_keyword(name: &str) -> bool {
    KEYWORDS.contains(&name)
}

/// Parses a complete MiniHDL design from source text.
///
/// # Errors
///
/// Returns a lex- or parse-phase [`HdlError`] pointing at the offending
/// token.
///
/// # Examples
///
/// ```
/// let src = "
///     entity inv is
///       port(a : in bit; y : out bit);
///       comb begin
///         y <= not a;
///       end;
///     end;
/// ";
/// let design = musa_hdl::parse(src)?;
/// assert_eq!(design.entities.len(), 1);
/// assert_eq!(design.entities[0].name.name, "inv");
/// # Ok::<(), musa_hdl::HdlError>(())
/// ```
pub fn parse(source: &str) -> Result<Design> {
    let tokens = lex(source)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        next_id: 0,
        depth: 0,
    };
    parser.design()
}

/// The deepest nesting [`parse`] accepts. Each `if`/`case`/`for` block,
/// each operator node (`a and b`, `not a`, `a & b`, `a[i]`, `a sll 1`,
/// `orr(a)`, …) and each pair of parentheses is one level, so a chain
/// `a and b and c` is two levels deep, like the tree it parses to.
///
/// The parser, and the checker, synthesizer and lint passes that walk
/// its tree, recurse once per level; the cap turns hostile input
/// (`((((…` or `a and a and …`) into an ordinary parse error instead of
/// a stack overflow. The bundled designs nest at most 8 levels.
const MAX_NESTING: usize = 128;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    next_id: u32,
    /// Levels above the construct being parsed. An expression parsed
    /// here spans at most `MAX_NESTING - depth` levels below its root.
    depth: usize,
}

impl Parser {
    /// Parses one construct a nesting level deeper, refusing to pass
    /// [`MAX_NESTING`].
    fn nested<T>(&mut self, inner: fn(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth == MAX_NESTING {
            return Err(self.too_deep());
        }
        self.depth += 1;
        let result = inner(self);
        self.depth -= 1;
        result
    }

    /// The height of one level over subtrees at most `below` levels
    /// tall, refusing a tree that would reach past [`MAX_NESTING`].
    fn above(&self, below: usize) -> Result<usize> {
        if self.depth + below >= MAX_NESTING {
            return Err(self.too_deep());
        }
        Ok(below + 1)
    }

    fn too_deep(&self) -> HdlError {
        HdlError::parse(
            format!("nesting deeper than {MAX_NESTING} levels"),
            self.peek().span,
        )
    }

    fn fresh(&mut self) -> NodeId {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        id
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(&self.peek().tok, Tok::Ident(s) if s == kw)
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, tok: Tok) -> Result<Token> {
        if self.peek().tok == tok {
            Ok(self.bump())
        } else {
            Err(HdlError::parse(
                format!("expected {tok}, found {}", self.peek().tok),
                self.peek().span,
            ))
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<Token> {
        if self.peek_kw(kw) {
            Ok(self.bump())
        } else {
            Err(HdlError::parse(
                format!("expected `{kw}`, found {}", self.peek().tok),
                self.peek().span,
            ))
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn name(&mut self) -> Result<Ident> {
        match &self.peek().tok {
            Tok::Ident(s) if !is_keyword(s) => {
                let t = self.bump();
                if let Tok::Ident(s) = t.tok {
                    Ok(Ident { name: s, span: t.span })
                } else {
                    unreachable!()
                }
            }
            Tok::Ident(s) => Err(HdlError::parse(
                format!("`{s}` is a reserved word"),
                self.peek().span,
            )),
            other => Err(HdlError::parse(
                format!("expected a name, found {other}"),
                self.peek().span,
            )),
        }
    }

    fn int(&mut self) -> Result<(u64, Span)> {
        match self.peek().tok {
            Tok::Int(v, _) => {
                let t = self.bump();
                Ok((v, t.span))
            }
            _ => Err(HdlError::parse(
                format!("expected an integer, found {}", self.peek().tok),
                self.peek().span,
            )),
        }
    }

    fn small_int(&mut self, what: &str) -> Result<u32> {
        let (v, span) = self.int()?;
        u32::try_from(v)
            .ok()
            .filter(|&v| v <= 64)
            .ok_or_else(|| HdlError::parse(format!("{what} {v} out of range (0..=64)"), span))
    }

    // ---- declarations -------------------------------------------------

    fn design(&mut self) -> Result<Design> {
        let mut entities = Vec::new();
        while !matches!(self.peek().tok, Tok::Eof) {
            entities.push(self.entity()?);
        }
        if entities.is_empty() {
            return Err(HdlError::parse("empty design", self.peek().span));
        }
        Ok(Design {
            entities,
            next_node_id: self.next_id,
        })
    }

    fn ty(&mut self) -> Result<u32> {
        if self.eat_kw("bit") {
            Ok(1)
        } else if self.eat_kw("bits") {
            self.expect(Tok::LParen)?;
            let w = self.small_int("width")?;
            if w == 0 {
                return Err(HdlError::parse("width must be at least 1", self.peek().span));
            }
            self.expect(Tok::RParen)?;
            Ok(w)
        } else {
            Err(HdlError::parse(
                format!("expected a type (`bit` or `bits(N)`), found {}", self.peek().tok),
                self.peek().span,
            ))
        }
    }

    fn entity(&mut self) -> Result<Entity> {
        let id = self.fresh();
        self.expect_kw("entity")?;
        let name = self.name()?;
        self.expect_kw("is")?;
        self.expect_kw("port")?;
        self.expect(Tok::LParen)?;
        let mut ports = Vec::new();
        loop {
            let mut group = vec![self.name()?];
            while self.peek().tok == Tok::Comma {
                self.bump();
                group.push(self.name()?);
            }
            self.expect(Tok::Colon)?;
            let dir = if self.eat_kw("in") {
                PortDir::In
            } else if self.eat_kw("out") {
                PortDir::Out
            } else {
                return Err(HdlError::parse(
                    format!("expected `in` or `out`, found {}", self.peek().tok),
                    self.peek().span,
                ));
            };
            let width = self.ty()?;
            for pname in group {
                ports.push(Port {
                    id: self.fresh(),
                    name: pname,
                    dir,
                    width,
                });
            }
            if self.peek().tok == Tok::Semi {
                self.bump();
                if self.peek().tok == Tok::RParen {
                    break;
                }
            } else {
                break;
            }
        }
        self.expect(Tok::RParen)?;
        self.expect(Tok::Semi)?;

        let mut consts = Vec::new();
        let mut signals = Vec::new();
        loop {
            if self.eat_kw("signal") {
                let sname = self.name()?;
                self.expect(Tok::Colon)?;
                let width = self.ty()?;
                let init = if self.peek().tok == Tok::ColonEq {
                    self.bump();
                    self.int()?.0
                } else {
                    0
                };
                self.expect(Tok::Semi)?;
                signals.push(SignalDecl {
                    id: self.fresh(),
                    name: sname,
                    width,
                    init,
                });
            } else if self.eat_kw("constant") {
                let cname = self.name()?;
                self.expect(Tok::Colon)?;
                let width = self.ty()?;
                self.expect(Tok::ColonEq)?;
                let value = self.int()?.0;
                self.expect(Tok::Semi)?;
                consts.push(ConstDecl {
                    id: self.fresh(),
                    name: cname,
                    width,
                    value,
                });
            } else {
                break;
            }
        }

        let mut processes = Vec::new();
        while self.peek_kw("comb") || self.peek_kw("seq") {
            processes.push(self.process()?);
        }

        self.expect_kw("end")?;
        // Optional trailing entity name.
        if let Tok::Ident(s) = &self.peek().tok {
            if !is_keyword(s) {
                let trailing = self.bump();
                if let Tok::Ident(s) = &trailing.tok {
                    if *s != name.name {
                        return Err(HdlError::parse(
                            format!("trailing name `{s}` does not match entity `{}`", name.name),
                            trailing.span,
                        ));
                    }
                }
            }
        }
        self.expect(Tok::Semi)?;

        Ok(Entity {
            id,
            name,
            ports,
            consts,
            signals,
            processes,
        })
    }

    fn process(&mut self) -> Result<Process> {
        let id = self.fresh();
        let kind = if self.eat_kw("comb") {
            ProcessKind::Comb
        } else {
            self.expect_kw("seq")?;
            self.expect(Tok::LParen)?;
            let clock = self.name()?;
            self.expect(Tok::RParen)?;
            ProcessKind::Seq { clock }
        };
        let mut vars = Vec::new();
        while self.eat_kw("var") {
            let vname = self.name()?;
            self.expect(Tok::Colon)?;
            let width = self.ty()?;
            let init = if self.peek().tok == Tok::ColonEq {
                self.bump();
                self.int()?.0
            } else {
                0
            };
            self.expect(Tok::Semi)?;
            vars.push(VarDecl {
                id: self.fresh(),
                name: vname,
                width,
                init,
            });
        }
        self.expect_kw("begin")?;
        let body = self.stmt_list()?;
        self.expect_kw("end")?;
        self.expect(Tok::Semi)?;
        Ok(Process { id, kind, vars, body })
    }

    // ---- statements ---------------------------------------------------

    fn stmt_list(&mut self) -> Result<Vec<Stmt>> {
        let mut stmts = Vec::new();
        loop {
            if self.peek_kw("end")
                || self.peek_kw("elsif")
                || self.peek_kw("else")
                || self.peek_kw("when")
                || matches!(self.peek().tok, Tok::Eof)
            {
                return Ok(stmts);
            }
            stmts.push(self.stmt()?);
        }
    }

    fn stmt(&mut self) -> Result<Stmt> {
        if self.peek_kw("if") {
            return self.nested(Self::if_stmt);
        }
        if self.peek_kw("case") {
            return self.nested(Self::case_stmt);
        }
        if self.peek_kw("for") {
            return self.nested(Self::for_stmt);
        }
        if self.peek_kw("null") {
            let id = self.fresh();
            self.bump();
            self.expect(Tok::Semi)?;
            return Ok(Stmt::Null { id });
        }
        // Assignment.
        let id = self.fresh();
        let target = self.target()?;
        let kind = match self.peek().tok {
            Tok::LessEq => {
                self.bump();
                AssignKind::Signal
            }
            Tok::ColonEq => {
                self.bump();
                AssignKind::Var
            }
            _ => {
                return Err(HdlError::parse(
                    format!("expected `<=` or `:=`, found {}", self.peek().tok),
                    self.peek().span,
                ));
            }
        };
        let (value, _) = self.expr()?;
        self.expect(Tok::Semi)?;
        Ok(Stmt::Assign {
            id,
            kind,
            target,
            value,
        })
    }

    fn target(&mut self) -> Result<Target> {
        let id = self.fresh();
        let base = self.name()?;
        let sel = if self.peek().tok == Tok::LBracket {
            self.bump();
            // `[INT : INT]` is a slice; anything else is an index expression.
            let checkpoint = self.pos;
            let checkpoint_id = self.next_id;
            if let Tok::Int(hi, _) = self.peek().tok {
                self.bump();
                if self.peek().tok == Tok::Colon {
                    self.bump();
                    let lo = self.small_int("slice bound")?;
                    self.expect(Tok::RBracket)?;
                    let hi = u32::try_from(hi).map_err(|_| {
                        HdlError::parse("slice bound out of range", self.peek().span)
                    })?;
                    return Ok(Target {
                        id,
                        base,
                        sel: Some(Select::Slice { hi, lo }),
                    });
                }
                self.pos = checkpoint;
                self.next_id = checkpoint_id;
            }
            let (index, _) = self.expr()?;
            self.expect(Tok::RBracket)?;
            Some(Select::Index(index))
        } else {
            None
        };
        Ok(Target { id, base, sel })
    }

    fn if_stmt(&mut self) -> Result<Stmt> {
        let id = self.fresh();
        self.expect_kw("if")?;
        let mut arms = Vec::new();
        let (cond, _) = self.expr()?;
        self.expect_kw("then")?;
        let body = self.stmt_list()?;
        arms.push((cond, body));
        let mut else_body = None;
        loop {
            if self.eat_kw("elsif") {
                let (cond, _) = self.expr()?;
                self.expect_kw("then")?;
                let body = self.stmt_list()?;
                arms.push((cond, body));
            } else if self.eat_kw("else") {
                else_body = Some(self.stmt_list()?);
                break;
            } else {
                break;
            }
        }
        self.expect_kw("end")?;
        self.expect_kw("if")?;
        self.expect(Tok::Semi)?;
        Ok(Stmt::If { id, arms, else_body })
    }

    fn case_stmt(&mut self) -> Result<Stmt> {
        let id = self.fresh();
        self.expect_kw("case")?;
        let (subject, _) = self.expr()?;
        self.expect_kw("is")?;
        let mut arms = Vec::new();
        let mut default = None;
        while self.peek_kw("when") {
            self.bump();
            if self.eat_kw("others") {
                self.expect(Tok::FatArrow)?;
                default = Some(self.stmt_list()?);
                break;
            }
            let arm_id = self.fresh();
            let mut choices = vec![self.int()?.0];
            while self.peek().tok == Tok::Pipe {
                self.bump();
                choices.push(self.int()?.0);
            }
            self.expect(Tok::FatArrow)?;
            let body = self.stmt_list()?;
            arms.push(CaseArm {
                id: arm_id,
                choices,
                body,
            });
        }
        self.expect_kw("end")?;
        self.expect_kw("case")?;
        self.expect(Tok::Semi)?;
        if arms.is_empty() && default.is_none() {
            return Err(HdlError::parse("case statement has no alternatives", self.peek().span));
        }
        Ok(Stmt::Case {
            id,
            subject,
            arms,
            default,
        })
    }

    fn for_stmt(&mut self) -> Result<Stmt> {
        let id = self.fresh();
        self.expect_kw("for")?;
        let var = self.name()?;
        self.expect_kw("in")?;
        let (lo, lo_span) = self.int()?;
        self.expect(Tok::DotDot)?;
        let (hi, _) = self.int()?;
        if lo > hi {
            return Err(HdlError::parse(
                format!("empty loop range {lo}..{hi}"),
                lo_span,
            ));
        }
        self.expect_kw("loop")?;
        let body = self.stmt_list()?;
        self.expect_kw("end")?;
        self.expect_kw("loop")?;
        self.expect(Tok::Semi)?;
        Ok(Stmt::For {
            id,
            var,
            lo,
            hi,
            body,
        })
    }

    // ---- expressions --------------------------------------------------
    //
    // Each returns the expression with its height: the levels it spans
    // below its root (0 for a name or literal), at most
    // `MAX_NESTING - depth`. Left-associative chains build their tree in
    // a loop, so the height, not the recursion, is what bounds them.

    /// Entry point: logical level (loosest).
    fn expr(&mut self) -> Result<(Expr, usize)> {
        let (mut lhs, mut height) = self.rel_expr()?;
        loop {
            let op = match &self.peek().tok {
                Tok::Ident(s) => match s.as_str() {
                    "and" => BinOp::And,
                    "or" => BinOp::Or,
                    "xor" => BinOp::Xor,
                    "nand" => BinOp::Nand,
                    "nor" => BinOp::Nor,
                    "xnor" => BinOp::Xnor,
                    _ => return Ok((lhs, height)),
                },
                _ => return Ok((lhs, height)),
            };
            let id = self.fresh();
            self.bump();
            let (rhs, rhs_height) = self.rel_expr()?;
            height = self.above(height.max(rhs_height))?;
            lhs = Expr::Binary {
                id,
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
    }

    fn rel_expr(&mut self) -> Result<(Expr, usize)> {
        let (lhs, lhs_height) = self.add_expr()?;
        let op = match self.peek().tok {
            Tok::Eq => BinOp::Eq,
            Tok::SlashEq => BinOp::Ne,
            Tok::Less => BinOp::Lt,
            Tok::LessEq => BinOp::Le,
            Tok::Greater => BinOp::Gt,
            Tok::GreaterEq => BinOp::Ge,
            _ => return Ok((lhs, lhs_height)),
        };
        let id = self.fresh();
        self.bump();
        let (rhs, rhs_height) = self.add_expr()?;
        let height = self.above(lhs_height.max(rhs_height))?;
        Ok((
            Expr::Binary {
                id,
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            },
            height,
        ))
    }

    fn add_expr(&mut self) -> Result<(Expr, usize)> {
        let (mut lhs, mut height) = self.mul_expr()?;
        loop {
            // `None` is concatenation.
            let op = match self.peek().tok {
                Tok::Plus => Some(BinOp::Add),
                Tok::Minus => Some(BinOp::Sub),
                Tok::Amp => None,
                _ => return Ok((lhs, height)),
            };
            let id = self.fresh();
            self.bump();
            let (rhs, rhs_height) = self.mul_expr()?;
            height = self.above(height.max(rhs_height))?;
            let (lhs_box, rhs_box) = (Box::new(lhs), Box::new(rhs));
            lhs = match op {
                Some(op) => Expr::Binary {
                    id,
                    op,
                    lhs: lhs_box,
                    rhs: rhs_box,
                },
                None => Expr::Concat {
                    id,
                    lhs: lhs_box,
                    rhs: rhs_box,
                },
            };
        }
    }

    fn mul_expr(&mut self) -> Result<(Expr, usize)> {
        let (mut lhs, mut height) = self.shift_expr()?;
        while self.peek().tok == Tok::Star {
            let id = self.fresh();
            self.bump();
            let (rhs, rhs_height) = self.shift_expr()?;
            height = self.above(height.max(rhs_height))?;
            lhs = Expr::Binary {
                id,
                op: BinOp::Mul,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok((lhs, height))
    }

    fn shift_expr(&mut self) -> Result<(Expr, usize)> {
        let (mut arg, mut height) = self.unary_expr()?;
        loop {
            let op = if self.peek_kw("sll") {
                ShiftOp::Left
            } else if self.peek_kw("srl") {
                ShiftOp::Right
            } else {
                return Ok((arg, height));
            };
            let id = self.fresh();
            self.bump();
            let amount = self.small_int("shift amount")?;
            height = self.above(height)?;
            arg = Expr::Shift {
                id,
                op,
                arg: Box::new(arg),
                amount,
            };
        }
    }

    fn unary_expr(&mut self) -> Result<(Expr, usize)> {
        if self.peek_kw("not") {
            let id = self.fresh();
            self.bump();
            let (arg, arg_height) = self.nested(Self::unary_expr)?;
            return Ok((
                Expr::Unary {
                    id,
                    op: UnaryOp::Not,
                    arg: Box::new(arg),
                },
                self.above(arg_height)?,
            ));
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> Result<(Expr, usize)> {
        let (mut e, mut height) = self.atom()?;
        while self.peek().tok == Tok::LBracket {
            let id = self.fresh();
            self.bump();
            let checkpoint = self.pos;
            let checkpoint_id = self.next_id;
            if let Tok::Int(hi, _) = self.peek().tok {
                self.bump();
                if self.peek().tok == Tok::Colon {
                    self.bump();
                    let lo = self.small_int("slice bound")?;
                    self.expect(Tok::RBracket)?;
                    let hi = u32::try_from(hi).map_err(|_| {
                        HdlError::parse("slice bound out of range", self.peek().span)
                    })?;
                    height = self.above(height)?;
                    e = Expr::Slice {
                        id,
                        base: Box::new(e),
                        hi,
                        lo,
                    };
                    continue;
                }
                self.pos = checkpoint;
                self.next_id = checkpoint_id;
            }
            let (index, index_height) = self.nested(Self::expr)?;
            self.expect(Tok::RBracket)?;
            height = self.above(height.max(index_height))?;
            e = Expr::Index {
                id,
                base: Box::new(e),
                index: Box::new(index),
            };
        }
        Ok((e, height))
    }

    fn atom(&mut self) -> Result<(Expr, usize)> {
        match &self.peek().tok {
            Tok::Int(..) => {
                let id = self.fresh();
                let t = self.bump();
                if let Tok::Int(value, width) = t.tok {
                    Ok((
                        Expr::Literal {
                            id,
                            value,
                            width,
                            span: t.span,
                        },
                        0,
                    ))
                } else {
                    unreachable!()
                }
            }
            Tok::LParen => {
                self.bump();
                let (e, height) = self.nested(Self::expr)?;
                self.expect(Tok::RParen)?;
                Ok((e, self.above(height)?))
            }
            Tok::Ident(s) => {
                let reduce = match s.as_str() {
                    "orr" => Some(ReduceOp::Or),
                    "andr" => Some(ReduceOp::And),
                    "xorr" => Some(ReduceOp::Xor),
                    _ => None,
                };
                if let Some(op) = reduce {
                    let id = self.fresh();
                    self.bump();
                    self.expect(Tok::LParen)?;
                    let (arg, height) = self.nested(Self::expr)?;
                    self.expect(Tok::RParen)?;
                    return Ok((
                        Expr::Reduce {
                            id,
                            op,
                            arg: Box::new(arg),
                        },
                        self.above(height)?,
                    ));
                }
                let id = self.fresh();
                let name = self.name()?;
                Ok((Expr::Ref { id, name }, 0))
            }
            other => Err(HdlError::parse(
                format!("expected an expression, found {other}"),
                self.peek().span,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COUNTER: &str = "
        entity counter is
          port(clk : in bit; rst : in bit; en : in bit; q : out bits(4));
          signal count : bits(4) := 0;
          seq(clk) begin
            if rst = 1 then
              count <= 0;
            elsif en = 1 then
              count <= count + 1;
            end if;
          end;
          comb begin
            q <= count;
          end;
        end counter;
    ";

    #[test]
    fn parses_counter() {
        let design = parse(COUNTER).unwrap();
        let e = design.entity("counter").unwrap();
        assert_eq!(e.ports.len(), 4);
        assert_eq!(e.signals.len(), 1);
        assert_eq!(e.processes.len(), 2);
        assert!(matches!(e.processes[0].kind, ProcessKind::Seq { .. }));
        assert!(matches!(e.processes[1].kind, ProcessKind::Comb));
    }

    #[test]
    fn grouped_ports_expand() {
        let design = parse(
            "entity g is port(a, b, c : in bit; y : out bit);
             comb begin y <= a and b and c; end;
             end;",
        )
        .unwrap();
        let e = &design.entities[0];
        assert_eq!(e.ports.len(), 4);
        assert_eq!(e.ports[0].name.name, "a");
        assert_eq!(e.ports[2].name.name, "c");
        assert!(e.ports.iter().take(3).all(|p| p.dir == PortDir::In));
    }

    #[test]
    fn case_with_choices_and_others() {
        let design = parse(
            "entity c is port(s : in bits(2); y : out bit);
             comb begin
               case s is
                 when 0 | 3 => y <= 1;
                 when others => y <= 0;
               end case;
             end;
             end;",
        )
        .unwrap();
        let e = &design.entities[0];
        match &e.processes[0].body[0] {
            Stmt::Case { arms, default, .. } => {
                assert_eq!(arms.len(), 1);
                assert_eq!(arms[0].choices, vec![0, 3]);
                assert!(default.is_some());
            }
            other => panic!("expected case, got {other:?}"),
        }
    }

    #[test]
    fn for_loop_and_indexing() {
        let design = parse(
            "entity f is port(a : in bits(8); y : out bits(8));
             comb begin
               for i in 0 .. 7 loop
                 y[i] <= not a[i];
               end loop;
             end;
             end;",
        )
        .unwrap();
        let e = &design.entities[0];
        assert!(matches!(e.processes[0].body[0], Stmt::For { lo: 0, hi: 7, .. }));
    }

    #[test]
    fn slice_targets_and_exprs() {
        let design = parse(
            "entity s is port(a : in bits(8); y : out bits(8));
             comb begin
               y[7:4] <= a[3:0];
               y[3:0] <= a[7:4];
             end;
             end;",
        )
        .unwrap();
        let e = &design.entities[0];
        match &e.processes[0].body[0] {
            Stmt::Assign { target, value, .. } => {
                assert!(matches!(target.sel, Some(Select::Slice { hi: 7, lo: 4 })));
                assert!(matches!(value, Expr::Slice { hi: 3, lo: 0, .. }));
            }
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn precedence_logical_loosest() {
        let design = parse(
            "entity p is port(a, b, c : in bit; y : out bit);
             comb begin y <= a and b = c; end;
             end;",
        )
        .unwrap();
        // Must parse as a and (b = c).
        match &design.entities[0].processes[0].body[0] {
            Stmt::Assign { value, .. } => match value {
                Expr::Binary { op: BinOp::And, rhs, .. } => {
                    assert!(matches!(**rhs, Expr::Binary { op: BinOp::Eq, .. }));
                }
                other => panic!("expected and at top, got {other:?}"),
            },
            _ => unreachable!(),
        }
    }

    #[test]
    fn precedence_mul_tighter_than_add() {
        let design = parse(
            "entity p is port(a, b, c : in bits(4); y : out bits(4));
             comb begin y <= a + b * c; end;
             end;",
        )
        .unwrap();
        match &design.entities[0].processes[0].body[0] {
            Stmt::Assign { value, .. } => match value {
                Expr::Binary { op: BinOp::Add, rhs, .. } => {
                    assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
                }
                other => panic!("expected + at top, got {other:?}"),
            },
            _ => unreachable!(),
        }
    }

    #[test]
    fn reductions_parse() {
        let design = parse(
            "entity r is port(a : in bits(8); y : out bit);
             comb begin y <= xorr(a) or orr(a and a) or andr(a); end;
             end;",
        )
        .unwrap();
        assert_eq!(design.entities.len(), 1);
    }

    #[test]
    fn shifts_parse() {
        let design = parse(
            "entity sh is port(a : in bits(8); y : out bits(8));
             comb begin y <= (a sll 2) or (a srl 1); end;
             end;",
        )
        .unwrap();
        assert_eq!(design.entities.len(), 1);
    }

    #[test]
    fn variables_parse() {
        let design = parse(
            "entity v is port(a : in bits(4); y : out bits(4));
             comb
               var t : bits(4) := 0;
             begin
               t := a + 1;
               y <= t;
             end;
             end;",
        )
        .unwrap();
        assert_eq!(design.entities[0].processes[0].vars.len(), 1);
    }

    #[test]
    fn node_ids_are_unique() {
        let design = parse(COUNTER).unwrap();
        let mut ids = Vec::new();
        for e in &design.entities {
            for p in &e.processes {
                walk_stmts(&p.body, &mut |s| ids.push(s.id()));
                walk_exprs(&p.body, &mut |x| ids.push(x.id()));
            }
        }
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "duplicate node ids");
        assert!(ids.iter().all(|id| id.0 < design.next_node_id));
    }

    #[test]
    fn rejects_keyword_names() {
        assert!(parse("entity end is port(a : in bit); end;").is_err());
        assert!(parse("entity e is port(signal : in bit); end;").is_err());
    }

    #[test]
    fn rejects_mismatched_trailing_name() {
        let err = parse(
            "entity foo is port(a : in bit; y : out bit);
             comb begin y <= a; end;
             end bar;",
        )
        .unwrap_err();
        assert!(err.message.contains("does not match"));
    }

    #[test]
    fn rejects_empty_design_and_empty_case() {
        assert!(parse("").is_err());
        assert!(parse(
            "entity e is port(a : in bit; y : out bit);
             comb begin case a is end case; end;
             end;"
        )
        .is_err());
    }

    #[test]
    fn rejects_empty_loop_range() {
        assert!(parse(
            "entity e is port(a : in bits(4); y : out bits(4));
             comb begin
               for i in 5 .. 2 loop y[i] <= a[i]; end loop;
             end;
             end;"
        )
        .is_err());
    }

    /// A one-entity design whose output is `depth` levels of `open` …
    /// `close` around `a`.
    fn nested_design(depth: usize, open: &str, close: &str) -> String {
        format!(
            "entity e is port(a : in bit; y : out bit); comb begin y <= {}a{}; end; end;",
            open.repeat(depth),
            close.repeat(depth)
        )
    }

    /// `depth` nested `if` blocks around one assignment of `value`.
    fn nested_ifs(depth: usize, value: &str) -> String {
        format!(
            "entity e is port(a : in bit; y : out bit); comb begin {} y <= {value}; {} end; end;",
            "if a then ".repeat(depth),
            "end if; ".repeat(depth)
        )
    }

    /// `a` followed by `links` copies of `link`: a left-deep chain.
    fn chain(links: usize, link: &str) -> String {
        format!("a{}", link.repeat(links))
    }

    fn assert_too_deep(src: &str, what: &str) {
        let err = parse(src).unwrap_err();
        assert!(
            err.to_string().contains("nesting deeper than 128 levels"),
            "{what}: {err}"
        );
    }

    #[test]
    fn nesting_is_bounded_at_max_nesting() {
        for (open, close) in [("(", ")"), ("orr(", ")"), ("not ", ""), ("a[", "]")] {
            assert!(
                parse(&nested_design(MAX_NESTING, open, close)).is_ok(),
                "{open}"
            );
            assert_too_deep(&nested_design(MAX_NESTING + 1, open, close), open);
        }
        assert!(parse(&nested_ifs(MAX_NESTING, "a")).is_ok());
        assert_too_deep(&nested_ifs(MAX_NESTING + 1, "a"), "if");
    }

    #[test]
    fn chains_count_one_level_per_link() {
        for link in [
            " and a", " xor a", " + a", " - a", " & a", " * a", " sll 1", "[0:0]", "[a]",
        ] {
            assert!(
                parse(&nested_ifs(0, &chain(MAX_NESTING, link))).is_ok(),
                "{link}"
            );
            assert_too_deep(&nested_ifs(0, &chain(MAX_NESTING + 1, link)), link);
        }
        // A relational node is one more level over its operands.
        let compare = |links: usize| nested_ifs(0, &format!("{} = a", chain(links, " + a")));
        assert!(parse(&compare(MAX_NESTING - 1)).is_ok());
        assert_too_deep(&compare(MAX_NESTING), "=");
    }

    #[test]
    fn blocks_parentheses_and_chains_share_one_budget() {
        // 64 `if` blocks leave 64 levels for the expression inside.
        assert!(parse(&nested_ifs(64, &chain(64, " and a"))).is_ok());
        assert_too_deep(&nested_ifs(64, &chain(65, " and a")), "if + and");
        // A chain inside parentheses: the parentheses are one level.
        let inner = format!("({})", chain(MAX_NESTING - 1, " or a"));
        assert!(parse(&nested_ifs(0, &inner)).is_ok());
        assert_too_deep(
            &nested_ifs(0, &format!("({})", chain(MAX_NESTING, " or a"))),
            "( or )",
        );
        // A deep right operand counts as much as a deep left one.
        let right = |depth: usize| format!("a and {}a{}", "(".repeat(depth), ")".repeat(depth));
        assert!(parse(&nested_ifs(0, &right(MAX_NESTING - 1))).is_ok());
        assert_too_deep(&nested_ifs(0, &right(MAX_NESTING)), "and (((");
    }

    #[test]
    fn hostile_nesting_is_a_parse_error() {
        assert_too_deep(&nested_design(200_000, "(", ")"), "200k (");
        for link in [" and a", " & a"] {
            assert_too_deep(&nested_ifs(0, &chain(200_000, link)), link);
        }
    }

    #[test]
    fn error_renders_position() {
        let src = "entity e is\n  port(a : in bogus);\nend;";
        let err = parse(src).unwrap_err();
        let rendered = err.render(src);
        assert!(rendered.starts_with("parse error at 2:"), "{rendered}");
    }
}
