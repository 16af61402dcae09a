//! Semantic analysis: names, widths, drivers, clocking and loop freedom.
//!
//! [`CheckedDesign::new`] validates a parsed [`Design`] and produces the
//! side tables (symbol table, per-expression widths, process schedules)
//! consumed by the simulator, the synthesizer, the mutation engine and
//! the static analysis. [`EntityInfo`] also answers the queries they
//! share: combinational read sets, the combinational schedule and
//! loop-index symbols.
//!
//! ## Rules enforced
//!
//! * every name is declared exactly once; reserved words are unusable;
//! * every expression has a consistent width; decimal literals adopt the
//!   width of their context;
//! * `<=` targets are signals/output ports, `:=` targets are variables;
//! * every signal and output port has **exactly one** driving process;
//!   input ports and constants are never assigned;
//! * clocks (`seq(clk)`) are width-1 input ports, never read as data;
//! * combinational processes never read a signal they drive, and the
//!   process dependency graph is acyclic (no combinational loops);
//! * combinational processes fully assign every driven signal on every
//!   execution path (no inferred latches), tracked per bit;
//! * static indices and slices are in range; case choices fit the subject
//!   width and are not duplicated; loop ranges are non-empty.
//!
//! The rules a one-node rewrite can break are public, so a mutant can be
//! validated where it sits instead of re-checking a clone of the whole
//! design: [`ExprScope`] holds the expression rules (names, widths,
//! ranges, the target-index rule), [`check_const_value`] and
//! [`check_case_choice`] the declaration and choice rules, and
//! [`EntityInfo`] the whole-entity ones ([`EntityInfo::undriven_output`],
//! [`EntityInfo::reads_own_drive`], [`EntityInfo::comb_schedule`],
//! [`EntityInfo::partially_assigned`] with a [`BodyEdit`]).
//! [`CheckedDesign::new`] reaches every rule through these same
//! functions.

use crate::ast::*;
use crate::error::{HdlError, Result};
use crate::span::Span;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Identity of a symbol (port, signal, constant, variable, loop index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SymbolId(pub u32);

/// What a symbol is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymbolKind {
    /// Input port. `clock` is true when some `seq` process uses it.
    PortIn {
        /// Used as a clock by at least one process.
        clock: bool,
    },
    /// Output port.
    PortOut,
    /// Internal signal.
    Signal,
    /// Named compile-time constant with its value.
    Const(u64),
    /// Process-local variable (owning process index).
    Var {
        /// Index of the owning process in `Entity::processes`.
        process: usize,
    },
    /// A `for` loop index (read-only).
    LoopVar,
}

/// A resolved symbol.
#[derive(Debug, Clone)]
pub struct Symbol {
    /// Name as declared.
    pub name: String,
    /// Width in bits.
    pub width: u32,
    /// Kind.
    pub kind: SymbolKind,
    /// Initial / reset value (ports: 0).
    pub init: u64,
}

/// Storage classification of a driven symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriveClass {
    /// Driven by a combinational process.
    Wire,
    /// Driven by a clocked process.
    Register,
}

/// Checked metadata for one entity.
#[derive(Debug, Clone)]
pub struct EntityInfo {
    /// All symbols; indexed by [`SymbolId`].
    pub symbols: Vec<Symbol>,
    /// Expression node → resolved width.
    pub widths: HashMap<NodeId, u32>,
    /// `Ref`/`Target` node → symbol.
    pub resolved: HashMap<NodeId, SymbolId>,
    /// Signal / output-port → driving process index.
    pub drivers: HashMap<SymbolId, usize>,
    /// Wire or register classification for each driven symbol.
    pub drive_class: HashMap<SymbolId, DriveClass>,
    /// Combinational process indices in evaluation (topological) order.
    pub comb_order: Vec<usize>,
    /// Clocked process indices in declaration order.
    pub seq_processes: Vec<usize>,
    /// Clock input ports.
    pub clocks: Vec<SymbolId>,
    /// Non-clock input ports, in declaration order.
    pub data_inputs: Vec<SymbolId>,
    /// Output ports, in declaration order.
    pub outputs: Vec<SymbolId>,
    /// The index symbol of each `for` statement, by the statement's id.
    pub loop_indices: HashMap<NodeId, SymbolId>,
    /// Ports, constants and signals by name (what [`ExprScope`] looks up
    /// outside a process's own scope).
    top_names: HashMap<String, SymbolId>,
}

impl EntityInfo {
    /// Looks up a top-level symbol (port/signal/constant) by name.
    pub fn symbol_by_name(&self, name: &str) -> Option<SymbolId> {
        self.symbols
            .iter()
            .position(|s| {
                s.name == name
                    && !matches!(s.kind, SymbolKind::Var { .. } | SymbolKind::LoopVar)
            })
            .map(|i| SymbolId(i as u32))
    }

    /// The symbol for an id.
    pub fn symbol(&self, id: SymbolId) -> &Symbol {
        &self.symbols[id.0 as usize]
    }

    /// `true` when the entity has no clocked process (pure combinational).
    pub fn is_combinational(&self) -> bool {
        self.seq_processes.is_empty()
    }

    /// Total width of the data inputs (the test-vector width).
    pub fn input_bits(&self) -> u32 {
        self.data_inputs
            .iter()
            .map(|&s| self.symbol(s).width)
            .sum()
    }

    /// `true` when a symbol is a reset-like input: a width-1 input port
    /// named `reset` or `rst` (case-insensitive).
    ///
    /// Test generators use this testbench convention to pulse resets
    /// sparsely instead of toggling them like data — the standard
    /// stimulus discipline for sequential circuits.
    pub fn reset_like(&self, sym: SymbolId) -> bool {
        let s = self.symbol(sym);
        matches!(s.kind, SymbolKind::PortIn { clock: false })
            && s.width == 1
            && {
                let lower = s.name.to_ascii_lowercase();
                lower == "reset" || lower == "rst"
            }
    }

    /// Total width of the outputs.
    pub fn output_bits(&self) -> u32 {
        self.outputs.iter().map(|&s| self.symbol(s).width).sum()
    }

    /// The ports and signals each combinational process reads, keyed by
    /// process index (variables, constants and loop indices excluded).
    pub fn comb_reads(&self, entity: &Entity) -> BTreeMap<usize, BTreeSet<SymbolId>> {
        let mut reads = BTreeMap::new();
        for (i, process) in entity.processes.iter().enumerate() {
            if !matches!(process.kind, ProcessKind::Comb) {
                continue;
            }
            let set: &mut BTreeSet<SymbolId> = reads.entry(i).or_default();
            walk_exprs(&process.body, &mut |e| {
                if let Expr::Ref { id, .. } = e {
                    if let Some(&sym) = self.resolved.get(id) {
                        if self.is_comb_read(sym) {
                            set.insert(sym);
                        }
                    }
                }
            });
        }
        reads
    }

    /// Whether reading `sym` counts in [`EntityInfo::comb_reads`]: ports
    /// and signals do, variables, constants and loop indices do not.
    pub fn is_comb_read(&self, sym: SymbolId) -> bool {
        matches!(
            self.symbol(sym).kind,
            SymbolKind::PortIn { .. } | SymbolKind::PortOut | SymbolKind::Signal
        )
    }

    /// The self-read rule: combinational process `process` may not read
    /// `sym` when it drives `sym` itself.
    pub fn reads_own_drive(&self, process: usize, sym: SymbolId) -> bool {
        self.drivers.get(&sym) == Some(&process)
    }

    /// The output-driven rule: the first output port, in declaration
    /// order, that `driven` says has no driver.
    pub fn undriven_output(&self, driven: impl Fn(SymbolId) -> bool) -> Option<SymbolId> {
        self.outputs.iter().copied().find(|&sym| !driven(sym))
    }

    /// The expression rules in one scope: `scope` lists the variables and
    /// loop indices visible there (innermost last), and the checked
    /// nodes' widths and symbols land in `widths` and `resolved`.
    pub fn expr_scope<'s>(
        &'s self,
        scope: &'s [(String, SymbolId)],
        widths: &'s mut HashMap<NodeId, u32>,
        resolved: &'s mut HashMap<NodeId, SymbolId>,
    ) -> ExprScope<'s> {
        ExprScope {
            symbols: &self.symbols,
            top_names: &self.top_names,
            scopes: scope,
            widths,
            resolved,
        }
    }

    /// Orders the combinational processes (the keys of `reads`) so that
    /// each runs after every other one driving a symbol in its read set
    /// (Kahn's algorithm).
    ///
    /// # Errors
    ///
    /// When the dependencies cycle, returns a process on a cycle: the
    /// same one for the same `reads`.
    pub fn comb_schedule(
        &self,
        reads: &BTreeMap<usize, BTreeSet<SymbolId>>,
    ) -> std::result::Result<Vec<usize>, usize> {
        let mut dependents: HashMap<usize, Vec<usize>> = HashMap::new();
        let mut in_degree: HashMap<usize, usize> = reads.keys().map(|&i| (i, 0)).collect();
        for (&reader, syms) in reads {
            for sym in syms {
                if let Some(&writer) = self.drivers.get(sym) {
                    if writer != reader && reads.contains_key(&writer) {
                        dependents.entry(writer).or_default().push(reader);
                        *in_degree.get_mut(&reader).expect("reader registered") += 1;
                    }
                }
            }
        }
        let mut ready: Vec<usize> = reads
            .keys()
            .copied()
            .filter(|i| in_degree[i] == 0)
            .collect();
        let mut order = Vec::with_capacity(reads.len());
        while let Some(next) = ready.pop() {
            order.push(next);
            for &d in dependents.get(&next).into_iter().flatten() {
                let deg = in_degree.get_mut(&d).expect("dependent registered");
                *deg -= 1;
                if *deg == 0 {
                    ready.push(d);
                }
            }
        }
        if order.len() == reads.len() {
            return Ok(order);
        }
        // Every process left unordered has a predecessor left unordered,
        // so walking back along them must revisit a process: that one
        // lies on a cycle.
        let left = |i: &usize| in_degree.get(i).is_some_and(|&d| d > 0);
        let mut at = *reads
            .keys()
            .find(|i| left(i))
            .expect("a cycle leaves a process");
        let mut seen = BTreeSet::new();
        while seen.insert(at) {
            at = reads[&at]
                .iter()
                .filter_map(|sym| self.drivers.get(sym).copied())
                .find(|w| *w != at && left(w))
                .expect("an unordered process has an unordered predecessor");
        }
        Err(at)
    }

    /// The symbol of loop index `name`, found through a resolved
    /// reference in the loop's `body`; `None` when the body never reads
    /// the index.
    pub fn loop_symbol(&self, body: &[Stmt], name: &str) -> Option<SymbolId> {
        let mut found = None;
        walk_exprs(body, &mut |e| {
            if let Expr::Ref { id, name: n } = e {
                if found.is_none() && n.name == name {
                    found = self
                        .resolved
                        .get(id)
                        .copied()
                        .filter(|&sym| matches!(self.symbol(sym).kind, SymbolKind::LoopVar));
                }
            }
        });
        found
    }
}

/// A design that passed semantic analysis, with its side tables.
///
/// Owns the [`Design`]; the simulator and synthesizer borrow it.
///
/// # Examples
///
/// ```
/// let design = musa_hdl::parse(
///     "entity buf is port(a : in bit; y : out bit);
///        comb begin y <= a; end;
///      end;",
/// )?;
/// let checked = musa_hdl::CheckedDesign::new(design)?;
/// let info = checked.entity_info("buf").unwrap();
/// assert!(info.is_combinational());
/// # Ok::<(), musa_hdl::HdlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CheckedDesign {
    design: Design,
    infos: Vec<EntityInfo>,
}

impl CheckedDesign {
    /// Checks a parsed design.
    ///
    /// # Errors
    ///
    /// Returns the first check-phase [`HdlError`] found.
    pub fn new(design: Design) -> Result<Self> {
        let mut infos = Vec::with_capacity(design.entities.len());
        for entity in &design.entities {
            infos.push(Checker::run(entity)?);
        }
        Ok(Self { design, infos })
    }

    /// The underlying design.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// Consumes the wrapper and returns the design.
    pub fn into_design(self) -> Design {
        self.design
    }

    /// The entity and its checked metadata, by name.
    pub fn entity(&self, name: &str) -> Option<(&Entity, &EntityInfo)> {
        self.design
            .entities
            .iter()
            .position(|e| e.name.name == name)
            .map(|i| (&self.design.entities[i], &self.infos[i]))
    }

    /// The checked metadata for an entity, by name.
    pub fn entity_info(&self, name: &str) -> Option<&EntityInfo> {
        self.entity(name).map(|(_, info)| info)
    }

    /// Entity/metadata pairs in declaration order.
    pub fn entities(&self) -> impl Iterator<Item = (&Entity, &EntityInfo)> {
        self.design.entities.iter().zip(self.infos.iter())
    }
}

struct Checker<'a> {
    entity: &'a Entity,
    symbols: Vec<Symbol>,
    top_names: HashMap<String, SymbolId>,
    widths: HashMap<NodeId, u32>,
    resolved: HashMap<NodeId, SymbolId>,
    drivers: HashMap<SymbolId, usize>,
    loop_indices: HashMap<NodeId, SymbolId>,
    /// Scope stack for vars and loop variables.
    scopes: Vec<(String, SymbolId)>,
    current_process: usize,
}

impl<'a> Checker<'a> {
    fn run(entity: &'a Entity) -> Result<EntityInfo> {
        let mut c = Checker {
            entity,
            symbols: Vec::new(),
            top_names: HashMap::new(),
            widths: HashMap::new(),
            resolved: HashMap::new(),
            drivers: HashMap::new(),
            loop_indices: HashMap::new(),
            scopes: Vec::new(),
            current_process: 0,
        };
        c.declare_top_level()?;
        c.mark_clocks()?;
        for (i, process) in entity.processes.iter().enumerate() {
            c.current_process = i;
            c.check_process(process)?;
        }

        let mut drive_class = HashMap::new();
        for (&sym, &proc_idx) in &c.drivers {
            let class = match entity.processes[proc_idx].kind {
                ProcessKind::Comb => DriveClass::Wire,
                ProcessKind::Seq { .. } => DriveClass::Register,
            };
            drive_class.insert(sym, class);
        }
        let seq_processes: Vec<usize> = entity
            .processes
            .iter()
            .enumerate()
            .filter(|(_, p)| matches!(p.kind, ProcessKind::Seq { .. }))
            .map(|(i, _)| i)
            .collect();

        let clocks: Vec<SymbolId> = c
            .symbols
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s.kind, SymbolKind::PortIn { clock: true }))
            .map(|(i, _)| SymbolId(i as u32))
            .collect();
        let data_inputs: Vec<SymbolId> = c
            .symbols
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s.kind, SymbolKind::PortIn { clock: false }))
            .map(|(i, _)| SymbolId(i as u32))
            .collect();
        let outputs: Vec<SymbolId> = c
            .symbols
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s.kind, SymbolKind::PortOut))
            .map(|(i, _)| SymbolId(i as u32))
            .collect();

        let mut info = EntityInfo {
            symbols: c.symbols,
            widths: c.widths,
            resolved: c.resolved,
            drivers: c.drivers,
            drive_class,
            comb_order: Vec::new(),
            seq_processes,
            clocks,
            data_inputs,
            outputs,
            loop_indices: c.loop_indices,
            top_names: c.top_names,
        };
        // Output ports must be driven (interface contract). Internal
        // signals may be undriven: they behave as constants holding their
        // initial value — which is exactly what an SDL mutant that deletes
        // a register's only assignment produces.
        if let Some(sym) = info.undriven_output(|sym| info.drivers.contains_key(&sym)) {
            let name = &info.symbol(sym).name;
            let port = entity.ports.iter().find(|p| p.name.name == *name);
            return Err(HdlError::check(
                format!("output port `{name}` is never driven"),
                port.map_or_else(Span::dummy, |p| p.name.span),
            ));
        }
        info.comb_order = info.schedule(entity)?;
        info.check_full_assignment(entity)?;
        Ok(info)
    }

    // ---- declarations --------------------------------------------------

    fn declare(&mut self, name: &Ident, symbol: Symbol) -> Result<SymbolId> {
        let id = SymbolId(self.symbols.len() as u32);
        match self.top_names.entry(name.name.clone()) {
            Entry::Occupied(_) => Err(HdlError::check(
                format!("`{}` is declared more than once", name.name),
                name.span,
            )),
            Entry::Vacant(v) => {
                v.insert(id);
                self.symbols.push(symbol);
                Ok(id)
            }
        }
    }

    fn declare_top_level(&mut self) -> Result<()> {
        for port in &self.entity.ports {
            let kind = match port.dir {
                PortDir::In => SymbolKind::PortIn { clock: false },
                PortDir::Out => SymbolKind::PortOut,
            };
            self.declare(
                &port.name,
                Symbol {
                    name: port.name.name.clone(),
                    width: port.width,
                    kind,
                    init: 0,
                },
            )?;
        }
        for cst in &self.entity.consts {
            check_const_value(cst, cst.value)?;
            self.declare(
                &cst.name,
                Symbol {
                    name: cst.name.name.clone(),
                    width: cst.width,
                    kind: SymbolKind::Const(cst.value),
                    init: cst.value,
                },
            )?;
        }
        for sig in &self.entity.signals {
            if sig.width < 64 && sig.init >= (1u64 << sig.width) {
                return Err(HdlError::check(
                    format!(
                        "signal `{}` initial value {} does not fit in {} bits",
                        sig.name.name, sig.init, sig.width
                    ),
                    sig.name.span,
                ));
            }
            self.declare(
                &sig.name,
                Symbol {
                    name: sig.name.name.clone(),
                    width: sig.width,
                    kind: SymbolKind::Signal,
                    init: sig.init,
                },
            )?;
        }
        Ok(())
    }

    fn mark_clocks(&mut self) -> Result<()> {
        for process in &self.entity.processes {
            if let ProcessKind::Seq { clock } = &process.kind {
                let id = *self.top_names.get(&clock.name).ok_or_else(|| {
                    HdlError::check(format!("unknown clock `{}`", clock.name), clock.span)
                })?;
                let sym = &mut self.symbols[id.0 as usize];
                match sym.kind {
                    SymbolKind::PortIn { .. } if sym.width == 1 => {
                        sym.kind = SymbolKind::PortIn { clock: true };
                    }
                    _ => {
                        return Err(HdlError::check(
                            format!("clock `{}` must be a width-1 input port", clock.name),
                            clock.span,
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// The expression rules — names, widths, literal and index ranges — in
/// one scope of one entity.
///
/// The checker applies them to every expression it meets; a mutant
/// validator gets one from [`EntityInfo::expr_scope`] and applies them
/// to the one expression a rewrite changes.
pub struct ExprScope<'s> {
    symbols: &'s [Symbol],
    top_names: &'s HashMap<String, SymbolId>,
    /// Variables and loop indices in scope, innermost last.
    scopes: &'s [(String, SymbolId)],
    widths: &'s mut HashMap<NodeId, u32>,
    resolved: &'s mut HashMap<NodeId, SymbolId>,
}

impl ExprScope<'_> {
    fn lookup(&self, name: &Ident) -> Result<SymbolId> {
        // Innermost scope first (vars, loop indices), then top level.
        for (n, id) in self.scopes.iter().rev() {
            if *n == name.name {
                return Ok(*id);
            }
        }
        self.top_names.get(&name.name).copied().ok_or_else(|| {
            HdlError::check(format!("unknown name `{}`", name.name), name.span)
        })
    }

    /// Width of an expression if derivable without context; `None` for
    /// context-dependent decimal literals.
    fn try_det(&self, e: &Expr) -> Option<u32> {
        match e {
            Expr::Literal { width, .. } => *width,
            Expr::Ref { name, .. } => {
                for (n, id) in self.scopes.iter().rev() {
                    if *n == name.name {
                        return Some(self.symbols[id.0 as usize].width);
                    }
                }
                self.top_names
                    .get(&name.name)
                    .map(|id| self.symbols[id.0 as usize].width)
            }
            Expr::Index { .. } => Some(1),
            // A malformed slice has no width; `check_expr` reports it.
            Expr::Slice { hi, lo, .. } => hi.checked_sub(*lo)?.checked_add(1),
            Expr::Unary { arg, .. } => self.try_det(arg),
            Expr::Binary { op, lhs, rhs, .. } => {
                if op.is_relational() {
                    Some(1)
                } else {
                    self.try_det(lhs).or_else(|| self.try_det(rhs))
                }
            }
            Expr::Reduce { .. } => Some(1),
            Expr::Concat { lhs, rhs, .. } => {
                Some(self.try_det(lhs)? + self.try_det(rhs)?)
            }
            Expr::Shift { arg, .. } => self.try_det(arg),
        }
    }

    /// Checks an expression against an optional expected width and records
    /// its resolved width. Returns the width.
    pub fn check_expr(&mut self, e: &Expr, expected: Option<u32>) -> Result<u32> {
        let width = match e {
            Expr::Literal {
                value,
                width,
                span,
                ..
            } => {
                let w = match (width, expected) {
                    (Some(w0), Some(we)) if *w0 != we => {
                        return Err(HdlError::check(
                            format!("literal has width {w0}, context requires {we}"),
                            *span,
                        ));
                    }
                    (Some(w0), _) => *w0,
                    (None, Some(we)) => we,
                    (None, None) => {
                        return Err(HdlError::check(
                            "cannot infer width of decimal literal; use a binary/hex \
                             literal or add context",
                            *span,
                        ));
                    }
                };
                if w < 64 && *value >= (1u64 << w) {
                    return Err(HdlError::check(
                        format!("literal {value} does not fit in {w} bits"),
                        *span,
                    ));
                }
                w
            }
            Expr::Ref { id, name } => {
                let sym_id = self.lookup(name)?;
                let sym = &self.symbols[sym_id.0 as usize];
                if matches!(sym.kind, SymbolKind::PortIn { clock: true }) {
                    return Err(HdlError::check(
                        format!("clock `{}` cannot be read as data", name.name),
                        name.span,
                    ));
                }
                self.resolved.insert(*id, sym_id);
                sym.width
            }
            Expr::Index { base, index, .. } => {
                let base_w = self.check_det(base)?;
                if let Expr::Literal { value, span, .. } = index.as_ref() {
                    if *value >= base_w as u64 {
                        return Err(HdlError::check(
                            format!("index {value} out of range for width {base_w}"),
                            *span,
                        ));
                    }
                    self.widths.insert(index.id(), 32);
                } else {
                    self.check_det(index)?;
                }
                1
            }
            Expr::Slice { base, hi, lo, .. } => {
                let base_w = self.check_det(base)?;
                if hi < lo {
                    return Err(HdlError::check(
                        format!("slice [{hi}:{lo}] has hi < lo"),
                        expr_span(base),
                    ));
                }
                if *hi >= base_w {
                    return Err(HdlError::check(
                        format!("slice [{hi}:{lo}] out of range for width {base_w}"),
                        expr_span(base),
                    ));
                }
                hi - lo + 1
            }
            Expr::Unary { arg, .. } => self.check_expr(arg, expected)?,
            Expr::Binary { op, lhs, rhs, .. } => {
                if op.is_relational() {
                    let w = self
                        .try_det(lhs)
                        .or_else(|| self.try_det(rhs))
                        .ok_or_else(|| {
                            HdlError::check(
                                "cannot infer operand width of comparison",
                                expr_span(e),
                            )
                        })?;
                    self.check_expr(lhs, Some(w))?;
                    self.check_expr(rhs, Some(w))?;
                    1
                } else {
                    let w = self
                        .try_det(lhs)
                        .or_else(|| self.try_det(rhs))
                        .or(expected)
                        .ok_or_else(|| {
                            HdlError::check(
                                format!("cannot infer width of `{}` expression", op.symbol()),
                                expr_span(e),
                            )
                        })?;
                    self.check_expr(lhs, Some(w))?;
                    self.check_expr(rhs, Some(w))?;
                    w
                }
            }
            Expr::Reduce { arg, .. } => {
                self.check_det(arg)?;
                1
            }
            Expr::Concat { lhs, rhs, .. } => {
                let wl = self.check_det(lhs)?;
                let wr = self.check_det(rhs)?;
                if wl + wr > 64 {
                    return Err(HdlError::check(
                        format!("concatenation width {} exceeds 64", wl + wr),
                        expr_span(e),
                    ));
                }
                wl + wr
            }
            Expr::Shift { arg, .. } => {
                let w = match self.try_det(arg).or(expected) {
                    Some(w) => w,
                    None => {
                        return Err(HdlError::check(
                            "cannot infer width of shift operand",
                            expr_span(e),
                        ));
                    }
                };
                self.check_expr(arg, Some(w))?;
                w
            }
        };
        if let Some(we) = expected {
            if we != width {
                return Err(HdlError::check(
                    format!("expression has width {width}, context requires {we}"),
                    expr_span(e),
                ));
            }
        }
        self.widths.insert(e.id(), width);
        Ok(width)
    }

    /// Checks an expression whose width must be self-determined.
    pub fn check_det(&mut self, e: &Expr) -> Result<u32> {
        let w = self.try_det(e).ok_or_else(|| {
            HdlError::check("cannot infer expression width", expr_span(e))
        })?;
        self.check_expr(e, Some(w))
    }

    /// The target-index rule for an assignment to `target`: a literal
    /// index lies inside the target (and reads as 32 bits wide), any
    /// other index has a self-determined width.
    pub fn check_target_index(&mut self, index: &Expr, target: &Symbol) -> Result<()> {
        if let Expr::Literal { value, span, .. } = index {
            if *value >= target.width as u64 {
                return Err(HdlError::check(
                    format!(
                        "index {value} out of range for `{}` (width {})",
                        target.name, target.width
                    ),
                    *span,
                ));
            }
            self.widths.insert(index.id(), 32);
        } else {
            self.check_det(index)?;
        }
        Ok(())
    }
}

impl<'a> Checker<'a> {
    /// The expression rules over the checker's own tables, in the
    /// current scope.
    fn exprs(&mut self) -> ExprScope<'_> {
        ExprScope {
            symbols: &self.symbols,
            top_names: &self.top_names,
            scopes: &self.scopes,
            widths: &mut self.widths,
            resolved: &mut self.resolved,
        }
    }

    // ---- statements ----------------------------------------------------

    fn check_process(&mut self, process: &Process) -> Result<()> {
        let scope_base = self.scopes.len();
        for var in &process.vars {
            if var.width < 64 && var.init >= (1u64 << var.width) {
                return Err(HdlError::check(
                    format!(
                        "variable `{}` initial value {} does not fit in {} bits",
                        var.name.name, var.init, var.width
                    ),
                    var.name.span,
                ));
            }
            if self.top_names.contains_key(&var.name.name)
                || self.scopes.iter().any(|(n, _)| *n == var.name.name)
            {
                return Err(HdlError::check(
                    format!("`{}` shadows an existing declaration", var.name.name),
                    var.name.span,
                ));
            }
            let id = SymbolId(self.symbols.len() as u32);
            self.symbols.push(Symbol {
                name: var.name.name.clone(),
                width: var.width,
                kind: SymbolKind::Var {
                    process: self.current_process,
                },
                init: var.init,
            });
            self.scopes.push((var.name.name.clone(), id));
        }
        self.check_stmts(&process.body, &process.kind)?;
        self.scopes.truncate(scope_base);
        Ok(())
    }

    fn check_stmts(&mut self, stmts: &[Stmt], kind: &ProcessKind) -> Result<()> {
        for stmt in stmts {
            self.check_stmt(stmt, kind)?;
        }
        Ok(())
    }

    fn check_stmt(&mut self, stmt: &Stmt, kind: &ProcessKind) -> Result<()> {
        match stmt {
            Stmt::Assign {
                kind: akind,
                target,
                value,
                ..
            } => {
                let sym_id = self.exprs().lookup(&target.base)?;
                let sym = self.symbols[sym_id.0 as usize].clone();
                match (&sym.kind, akind) {
                    (SymbolKind::PortOut | SymbolKind::Signal, AssignKind::Signal) => {
                        match self.drivers.entry(sym_id) {
                            Entry::Occupied(o) if *o.get() != self.current_process => {
                                return Err(HdlError::check(
                                    format!("`{}` is driven by more than one process", sym.name),
                                    target.base.span,
                                ));
                            }
                            Entry::Occupied(_) => {}
                            Entry::Vacant(v) => {
                                v.insert(self.current_process);
                            }
                        }
                    }
                    (SymbolKind::Var { process }, AssignKind::Var) => {
                        if *process != self.current_process {
                            return Err(HdlError::check(
                                format!("variable `{}` belongs to another process", sym.name),
                                target.base.span,
                            ));
                        }
                    }
                    (SymbolKind::PortOut | SymbolKind::Signal, AssignKind::Var) => {
                        return Err(HdlError::check(
                            format!("use `<=` to assign signal `{}`", sym.name),
                            target.base.span,
                        ));
                    }
                    (SymbolKind::Var { .. }, AssignKind::Signal) => {
                        return Err(HdlError::check(
                            format!("use `:=` to assign variable `{}`", sym.name),
                            target.base.span,
                        ));
                    }
                    (SymbolKind::PortIn { .. }, _) => {
                        return Err(HdlError::check(
                            format!("input port `{}` cannot be assigned", sym.name),
                            target.base.span,
                        ));
                    }
                    (SymbolKind::Const(_), _) => {
                        return Err(HdlError::check(
                            format!("constant `{}` cannot be assigned", sym.name),
                            target.base.span,
                        ));
                    }
                    (SymbolKind::LoopVar, _) => {
                        return Err(HdlError::check(
                            format!("loop index `{}` cannot be assigned", sym.name),
                            target.base.span,
                        ));
                    }
                }
                self.resolved.insert(target.id, sym_id);
                let value_width = match &target.sel {
                    None => sym.width,
                    Some(Select::Index(index)) => {
                        self.exprs().check_target_index(index, &sym)?;
                        1
                    }
                    Some(Select::Slice { hi, lo }) => {
                        if hi < lo || *hi >= sym.width {
                            return Err(HdlError::check(
                                format!(
                                    "slice [{hi}:{lo}] out of range for `{}` (width {})",
                                    sym.name, sym.width
                                ),
                                target.base.span,
                            ));
                        }
                        hi - lo + 1
                    }
                };
                self.exprs().check_expr(value, Some(value_width))?;
                Ok(())
            }
            Stmt::If {
                arms, else_body, ..
            } => {
                for (cond, body) in arms {
                    self.exprs().check_expr(cond, Some(1))?;
                    self.check_stmts(body, kind)?;
                }
                if let Some(body) = else_body {
                    self.check_stmts(body, kind)?;
                }
                Ok(())
            }
            Stmt::Case {
                subject,
                arms,
                default,
                ..
            } => {
                let w = self.exprs().check_det(subject)?;
                let mut seen = HashSet::new();
                for arm in arms {
                    for &choice in &arm.choices {
                        check_case_choice(choice, w, &seen, expr_span(subject))?;
                        seen.insert(choice);
                    }
                    self.check_stmts(&arm.body, kind)?;
                }
                if let Some(body) = default {
                    self.check_stmts(body, kind)?;
                }
                Ok(())
            }
            Stmt::For {
                id: id_of_for,
                var,
                lo,
                hi,
                body,
            } => {
                if self.top_names.contains_key(&var.name)
                    || self.scopes.iter().any(|(n, _)| *n == var.name)
                {
                    return Err(HdlError::check(
                        format!("loop index `{}` shadows an existing declaration", var.name),
                        var.span,
                    ));
                }
                // Width: enough bits for `hi` (at least 1).
                let width = 64 - hi.leading_zeros().min(63);
                let width = width.max(1);
                let id = SymbolId(self.symbols.len() as u32);
                self.symbols.push(Symbol {
                    name: var.name.clone(),
                    width,
                    kind: SymbolKind::LoopVar,
                    init: *lo,
                });
                self.scopes.push((var.name.clone(), id));
                self.loop_indices.insert(*id_of_for, id);
                self.check_stmts(body, kind)?;
                self.scopes.pop();
                Ok(())
            }
            Stmt::Null { .. } => Ok(()),
        }
    }
}

/// The constant rule: `value` fits the declared width of `cst`.
pub fn check_const_value(cst: &ConstDecl, value: u64) -> Result<()> {
    if cst.width < 64 && value >= (1u64 << cst.width) {
        return Err(HdlError::check(
            format!(
                "constant `{}` value {} does not fit in {} bits",
                cst.name.name, value, cst.width
            ),
            cst.name.span,
        ));
    }
    Ok(())
}

/// The case-choice rule: `choice` fits a `width`-bit subject and is not
/// among the `taken` choices of the same statement. `span` is the
/// subject's.
pub fn check_case_choice(choice: u64, width: u32, taken: &HashSet<u64>, span: Span) -> Result<()> {
    if width < 64 && choice >= (1u64 << width) {
        return Err(HdlError::check(
            format!("case choice {choice} does not fit in {width} bits"),
            span,
        ));
    }
    if taken.contains(&choice) {
        return Err(HdlError::check(format!("duplicate case choice {choice}"), span));
    }
    Ok(())
}

/// Where an error about expression `e` points: its leftmost leaf.
fn expr_span(e: &Expr) -> Span {
    match e {
        Expr::Literal { span, .. } => *span,
        Expr::Ref { name, .. } => name.span,
        Expr::Index { base, .. }
        | Expr::Slice { base, .. } => expr_span(base),
        Expr::Unary { arg, .. } | Expr::Reduce { arg, .. } | Expr::Shift { arg, .. } => {
            expr_span(arg)
        }
        Expr::Binary { lhs, .. } | Expr::Concat { lhs, .. } => expr_span(lhs),
    }
}

/// Where an error about process `i` points: its first statement with a
/// source location.
fn process_span(entity: &Entity, i: usize) -> Span {
    entity.processes[i]
        .body
        .iter()
        .map(Stmt::span)
        .find(|&span| span != Span::dummy())
        .unwrap_or_else(Span::dummy)
}

impl EntityInfo {
    /// The combinational evaluation order: no combinational process may
    /// read a signal it drives, and the processes must not form a loop.
    fn schedule(&self, entity: &Entity) -> Result<Vec<usize>> {
        let reads = self.comb_reads(entity);
        for (&i, syms) in &reads {
            if let Some(&sym) = syms.iter().find(|&&s| self.reads_own_drive(i, s)) {
                return Err(HdlError::check(
                    format!(
                        "combinational process reads `{}` which it also drives",
                        self.symbols[sym.0 as usize].name
                    ),
                    process_span(entity, i),
                ));
            }
        }
        self.comb_schedule(&reads).map_err(|i| {
            HdlError::check(
                "combinational loop between processes",
                process_span(entity, i),
            )
        })
    }

    /// Signals/ports driven by a process.
    pub fn process_drives(&self, process_idx: usize) -> HashSet<SymbolId> {
        self.drivers
            .iter()
            .filter(|(_, &p)| p == process_idx)
            .map(|(&s, _)| s)
            .collect()
    }

    // ---- full-assignment (latch-freedom) for comb processes -------------

    /// Every comb process assigns each signal it drives in full on every
    /// path. The error names the partially assigned signal declared
    /// first and points into the process driving it.
    fn check_full_assignment(&self, entity: &Entity) -> Result<()> {
        // (symbol, process, covered bits, full mask) of the first failure
        // in declaration order. Keeping the minimum as failures turn up
        // costs nothing on the passing path, which mutant validation
        // runs for every candidate.
        let mut first: Option<(SymbolId, usize, u64, u64)> = None;
        for &i in &self.comb_order {
            let drives = self.process_drives(i);
            let partial = self.partially_assigned(&entity.processes[i], drives, BodyEdit::None);
            if let Some((sym_id, mask, full)) = partial {
                if first.map_or(true, |(s, ..)| sym_id < s) {
                    first = Some((sym_id, i, mask, full));
                }
            }
        }
        match first {
            None => Ok(()),
            Some((sym_id, i, mask, full)) => Err(HdlError::check(
                format!(
                    "combinational process may leave `{}` partially unassigned \
                     (covered bits {:#b} of {:#b})",
                    self.symbols[sym_id.0 as usize].name, mask, full
                ),
                process_span(entity, i),
            )),
        }
    }

    /// The full-assignment rule for one combinational process, with
    /// `edit` applied to its body: of the `drives` symbols, the one with
    /// the lowest id that some path leaves partially assigned, with its
    /// covered bits and its full mask.
    pub fn partially_assigned(
        &self,
        process: &Process,
        drives: impl IntoIterator<Item = SymbolId>,
        edit: BodyEdit<'_>,
    ) -> Option<(SymbolId, u64, u64)> {
        let assigned = self.assigned_masks(&process.body, &HashMap::new(), edit);
        let mut first: Option<(SymbolId, u64, u64)> = None;
        for sym_id in drives {
            let sym = &self.symbols[sym_id.0 as usize];
            let full = if sym.width == 64 {
                u64::MAX
            } else {
                (1u64 << sym.width) - 1
            };
            let mask = assigned.get(&sym_id).copied().unwrap_or(0);
            if mask & full != full && first.map_or(true, |(s, ..)| sym_id < s) {
                first = Some((sym_id, mask, full));
            }
        }
        first
    }

    /// Per-signal bit masks guaranteed to be assigned on **every** path
    /// through `stmts`, with `edit` applied. `loop_bounds` maps an active
    /// loop index name to its inclusive range.
    fn assigned_masks(
        &self,
        stmts: &[Stmt],
        loop_bounds: &HashMap<String, (u64, u64)>,
        edit: BodyEdit<'_>,
    ) -> HashMap<SymbolId, u64> {
        let mut acc: HashMap<SymbolId, u64> = HashMap::new();
        for stmt in stmts {
            match stmt {
                Stmt::Assign { id, .. } if edit == BodyEdit::Delete(*id) => {}
                Stmt::Assign { id, target, .. } => {
                    let Some(&sym_id) = self.resolved.get(&target.id) else {
                        continue;
                    };
                    let sym = &self.symbols[sym_id.0 as usize];
                    if !matches!(sym.kind, SymbolKind::PortOut | SymbolKind::Signal) {
                        continue;
                    }
                    let full = if sym.width == 64 {
                        u64::MAX
                    } else {
                        (1u64 << sym.width) - 1
                    };
                    let add = match &target.sel {
                        None => full,
                        Some(Select::Slice { hi, lo }) => {
                            let w = hi - lo + 1;
                            let m = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
                            m << lo
                        }
                        Some(Select::Index(index)) => match edit.index_of(*id).unwrap_or(index) {
                            Expr::Literal { value, .. } if *value < 64 => 1u64 << value,
                            Expr::Ref { name, .. } => {
                                // Loop-index-driven assignment covers the
                                // whole traversed range.
                                if let Some(&(lo, hi)) = loop_bounds.get(&name.name) {
                                    let mut m = 0u64;
                                    let hi = hi.min(63);
                                    for b in lo..=hi {
                                        m |= 1u64 << b;
                                    }
                                    m
                                } else {
                                    0
                                }
                            }
                            _ => 0,
                        },
                    };
                    *acc.entry(sym_id).or_insert(0) |= add & full;
                }
                Stmt::If {
                    arms, else_body, ..
                } => {
                    if let Some(else_body) = else_body {
                        let mut branch_masks: Vec<HashMap<SymbolId, u64>> = arms
                            .iter()
                            .map(|(_, body)| self.assigned_masks(body, loop_bounds, edit))
                            .collect();
                        branch_masks.push(self.assigned_masks(else_body, loop_bounds, edit));
                        merge_intersection(&mut acc, &branch_masks);
                    }
                }
                Stmt::Case {
                    id,
                    subject,
                    arms,
                    default,
                } => {
                    let mut branch_masks: Vec<HashMap<SymbolId, u64>> = arms
                        .iter()
                        .map(|arm| self.assigned_masks(&arm.body, loop_bounds, edit))
                        .collect();
                    let width = match edit {
                        BodyEdit::SubjectWidth(case, w) if case == *id => Some(w),
                        _ => self.widths.get(&subject.id()).copied(),
                    };
                    let covers_all = if let Some(w) = width {
                        if w <= 16 {
                            let total: usize = arms.iter().map(|a| a.choices.len()).sum();
                            total == (1usize << w)
                        } else {
                            false
                        }
                    } else {
                        false
                    };
                    if let Some(default) = default {
                        branch_masks.push(self.assigned_masks(default, loop_bounds, edit));
                        merge_intersection(&mut acc, &branch_masks);
                    } else if covers_all && !branch_masks.is_empty() {
                        merge_intersection(&mut acc, &branch_masks);
                    }
                }
                Stmt::For {
                    var, lo, hi, body, ..
                } => {
                    let mut bounds = loop_bounds.clone();
                    bounds.insert(var.name.clone(), (*lo, *hi));
                    let body_masks = self.assigned_masks(body, &bounds, edit);
                    for (sym, mask) in body_masks {
                        *acc.entry(sym).or_insert(0) |= mask;
                    }
                }
                Stmt::Null { .. } => {}
            }
        }
        acc
    }
}

/// One rewritten node of a process body, as the full-assignment rule
/// ([`EntityInfo::partially_assigned`]) sees it. Statements are named by
/// their node ids.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BodyEdit<'a> {
    /// The body as written.
    None,
    /// This assignment is deleted.
    Delete(NodeId),
    /// This assignment indexes its target with a new expression.
    TargetIndex(NodeId, &'a Expr),
    /// This case statement's subject has a new width.
    SubjectWidth(NodeId, u32),
}

impl<'a> BodyEdit<'a> {
    /// The new target index of assignment `stmt`, if this edit gives it
    /// one.
    fn index_of(self, stmt: NodeId) -> Option<&'a Expr> {
        match self {
            BodyEdit::TargetIndex(at, index) if at == stmt => Some(index),
            _ => None,
        }
    }
}

/// ANDs together the per-branch masks (a signal is covered only by bits
/// assigned in *every* branch) and ORs the result into `acc`.
fn merge_intersection(acc: &mut HashMap<SymbolId, u64>, branches: &[HashMap<SymbolId, u64>]) {
    let Some(first) = branches.first() else {
        return;
    };
    for (&sym, &mask0) in first {
        let mut mask = mask0;
        for other in &branches[1..] {
            mask &= other.get(&sym).copied().unwrap_or(0);
        }
        if mask != 0 {
            *acc.entry(sym).or_insert(0) |= mask;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn check(src: &str) -> Result<CheckedDesign> {
        CheckedDesign::new(parse(src)?)
    }

    fn check_err(src: &str) -> String {
        check(src).unwrap_err().message
    }

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
    fn counter_checks() {
        let checked = check(COUNTER).unwrap();
        let info = checked.entity_info("counter").unwrap();
        assert_eq!(info.clocks.len(), 1);
        assert_eq!(info.data_inputs.len(), 2); // rst, en
        assert_eq!(info.outputs.len(), 1);
        assert!(!info.is_combinational());
        assert_eq!(info.input_bits(), 2);
        assert_eq!(info.output_bits(), 4);
        let count = info.symbol_by_name("count").unwrap();
        assert_eq!(info.drive_class[&count], DriveClass::Register);
        let q = info.symbol_by_name("q").unwrap();
        assert_eq!(info.drive_class[&q], DriveClass::Wire);
    }

    #[test]
    fn literal_width_inference_from_target() {
        let checked = check(
            "entity e is port(a : in bits(4); y : out bits(4));
             comb begin y <= a + 3; end;
             end;",
        )
        .unwrap();
        assert!(checked.entity_info("e").is_some());
    }

    #[test]
    fn rejects_uninferrable_literal() {
        let msg = check_err(
            "entity e is port(a : in bits(8); y : out bit);
             comb begin y <= 3 = 3; end;
             end;",
        );
        assert!(msg.contains("cannot infer"), "{msg}");
    }

    #[test]
    fn rejects_width_mismatch() {
        let msg = check_err(
            "entity e is port(a : in bits(4); b : in bits(5); y : out bits(4));
             comb begin y <= a and b; end;
             end;",
        );
        assert!(msg.contains("width"), "{msg}");
    }

    #[test]
    fn rejects_literal_too_big() {
        let msg = check_err(
            "entity e is port(a : in bits(3); y : out bits(3));
             comb begin y <= a + 9; end;
             end;",
        );
        assert!(msg.contains("does not fit"), "{msg}");
    }

    #[test]
    fn rejects_unknown_name() {
        let msg = check_err(
            "entity e is port(a : in bit; y : out bit);
             comb begin y <= zz; end;
             end;",
        );
        assert!(msg.contains("unknown name"), "{msg}");
    }

    #[test]
    fn rejects_duplicate_declaration() {
        let msg = check_err(
            "entity e is port(a : in bit; a : in bit; y : out bit);
             comb begin y <= a; end;
             end;",
        );
        assert!(msg.contains("more than once"), "{msg}");
    }

    #[test]
    fn rejects_multiple_drivers() {
        let msg = check_err(
            "entity e is port(a : in bit; y : out bit);
             comb begin y <= a; end;
             comb begin y <= not a; end;
             end;",
        );
        assert!(msg.contains("more than one process"), "{msg}");
    }

    #[test]
    fn rejects_undriven_output() {
        let src = "entity e is port(a : in bit; y : out bit; z : out bit);
             comb begin y <= a; end;
             end;";
        let err = check(src).unwrap_err();
        assert!(err.message.contains("`z` is never driven"), "{err}");
        // The error points at the undriven port's name.
        assert_eq!(err.span.lo, src.find("z : out").unwrap() as u32, "{err}");
    }

    #[test]
    fn rejects_assign_to_input() {
        let msg = check_err(
            "entity e is port(a : in bit; y : out bit);
             comb begin a <= y; y <= a; end;
             end;",
        );
        assert!(msg.contains("cannot be assigned"), "{msg}");
    }

    #[test]
    fn rejects_wrong_assign_operator() {
        let msg = check_err(
            "entity e is port(a : in bit; y : out bit);
             comb begin y := a; end;
             end;",
        );
        assert!(msg.contains("use `<=`"), "{msg}");
        let msg = check_err(
            "entity e is port(a : in bit; y : out bit);
             comb var t : bit; begin t <= a; y <= t; end;
             end;",
        );
        assert!(msg.contains("use `:=`"), "{msg}");
    }

    #[test]
    fn rejects_clock_read_as_data() {
        let msg = check_err(
            "entity e is port(clk : in bit; y : out bit);
             signal r : bit;
             seq(clk) begin r <= not r; end;
             comb begin y <= clk; end;
             end;",
        );
        assert!(msg.contains("clock"), "{msg}");
    }

    #[test]
    fn rejects_wide_clock() {
        let msg = check_err(
            "entity e is port(clk : in bits(2); y : out bit);
             signal r : bit;
             seq(clk) begin r <= not r; end;
             comb begin y <= r; end;
             end;",
        );
        assert!(msg.contains("width-1 input port"), "{msg}");
    }

    #[test]
    fn rejects_comb_self_read() {
        let msg = check_err(
            "entity e is port(a : in bit; y : out bit);
             comb begin y <= not y; end;
             end;",
        );
        assert!(msg.contains("also drives"), "{msg}");
    }

    #[test]
    fn rejects_comb_loop_between_processes() {
        let src = "entity e is port(a : in bit; y : out bit);
             signal s : bit;
             signal t : bit;
             comb begin s <= t and a; end;
             comb begin t <= s or a; end;
             comb begin y <= s; end;
             end;";
        let err = check(src).unwrap_err();
        assert!(err.message.contains("combinational loop"), "{err}");
        // The error points into a process on the loop.
        assert_eq!(err.span.lo, src.find("s <= t").unwrap() as u32, "{err}");
    }

    #[test]
    fn comb_order_respects_dependencies() {
        let checked = check(
            "entity e is port(a : in bit; y : out bit);
             signal s : bit;
             signal t : bit;
             comb begin y <= t; end;
             comb begin t <= s; end;
             comb begin s <= a; end;
             end;",
        )
        .unwrap();
        let info = checked.entity_info("e").unwrap();
        // Process 2 drives s, 1 drives t (reads s), 0 drives y (reads t).
        assert_eq!(info.comb_order, vec![2, 1, 0]);
    }

    #[test]
    fn partial_assignment_names_the_first_declared_signal_every_time() {
        // Two partially assigned outputs: the error must name `y`, the
        // one declared first, whatever order the checker's hash maps
        // yield them in (each checker run hashes with fresh keys).
        let src = "entity e is port(a : in bit; y : out bit; z : out bit);
             comb begin
               if a = 1 then y <= 1; z <= 1; end if;
             end;
             end;";
        // An `if` statement's span starts at its first condition.
        let at = src.find("a = 1").unwrap() as u32;
        for run in 0..64 {
            let err = check(src).unwrap_err();
            assert!(
                err.message.contains("leave `y` partially unassigned"),
                "run {run}: {err}"
            );
            assert_eq!(
                err.span.lo, at,
                "run {run}: the error points at the process body"
            );
        }
    }

    #[test]
    fn rejects_partial_comb_assignment() {
        let msg = check_err(
            "entity e is port(a : in bit; y : out bit);
             comb begin
               if a = 1 then y <= 1; end if;
             end;
             end;",
        );
        assert!(msg.contains("partially unassigned"), "{msg}");
    }

    #[test]
    fn accepts_if_else_full_assignment() {
        assert!(check(
            "entity e is port(a : in bit; y : out bit);
             comb begin
               if a = 1 then y <= 1; else y <= 0; end if;
             end;
             end;"
        )
        .is_ok());
    }

    #[test]
    fn accepts_case_with_default() {
        assert!(check(
            "entity e is port(a : in bits(2); y : out bit);
             comb begin
               case a is
                 when 0 => y <= 1;
                 when others => y <= 0;
               end case;
             end;
             end;"
        )
        .is_ok());
    }

    #[test]
    fn accepts_exhaustive_case_without_default() {
        assert!(check(
            "entity e is port(a : in bits(2); y : out bit);
             comb begin
               case a is
                 when 0 => y <= 1;
                 when 1 => y <= 0;
                 when 2 => y <= 0;
                 when 3 => y <= 1;
               end case;
             end;
             end;"
        )
        .is_ok());
    }

    #[test]
    fn rejects_inexhaustive_case_without_default() {
        let msg = check_err(
            "entity e is port(a : in bits(2); y : out bit);
             comb begin
               case a is
                 when 0 => y <= 1;
                 when 1 => y <= 0;
               end case;
             end;
             end;",
        );
        assert!(msg.contains("partially unassigned"), "{msg}");
    }

    #[test]
    fn accepts_loop_bit_coverage() {
        assert!(check(
            "entity e is port(a : in bits(8); y : out bits(8));
             comb begin
               for i in 0 .. 7 loop
                 y[i] <= not a[i];
               end loop;
             end;
             end;"
        )
        .is_ok());
    }

    #[test]
    fn rejects_incomplete_loop_coverage() {
        let msg = check_err(
            "entity e is port(a : in bits(8); y : out bits(8));
             comb begin
               for i in 0 .. 6 loop
                 y[i] <= not a[i];
               end loop;
             end;
             end;",
        );
        assert!(msg.contains("partially unassigned"), "{msg}");
    }

    #[test]
    fn accepts_slice_composition_coverage() {
        assert!(check(
            "entity e is port(a : in bits(8); y : out bits(8));
             comb begin
               y[7:4] <= a[3:0];
               y[3:0] <= a[7:4];
             end;
             end;"
        )
        .is_ok());
    }

    #[test]
    fn rejects_duplicate_case_choice() {
        let msg = check_err(
            "entity e is port(a : in bits(2); y : out bit);
             comb begin
               case a is
                 when 1 => y <= 1;
                 when 1 => y <= 0;
                 when others => y <= 0;
               end case;
             end;
             end;",
        );
        assert!(msg.contains("duplicate"), "{msg}");
    }

    #[test]
    fn rejects_case_choice_too_wide() {
        let msg = check_err(
            "entity e is port(a : in bits(2); y : out bit);
             comb begin
               case a is
                 when 5 => y <= 1;
                 when others => y <= 0;
               end case;
             end;
             end;",
        );
        assert!(msg.contains("does not fit"), "{msg}");
    }

    #[test]
    fn rejects_static_index_out_of_range() {
        let msg = check_err(
            "entity e is port(a : in bits(4); y : out bit);
             comb begin y <= a[4]; end;
             end;",
        );
        assert!(msg.contains("out of range"), "{msg}");
    }

    #[test]
    fn rejects_slice_out_of_range() {
        let msg = check_err(
            "entity e is port(a : in bits(4); y : out bits(3));
             comb begin y <= a[4:2]; end;
             end;",
        );
        assert!(msg.contains("out of range"), "{msg}");
        // A reversed slice whose width is inferred before it is checked
        // (found by `tests/props.rs::parser_never_panics`).
        let msg = check_err(
            "entity e is port(a : in bits(4); y : out bits(3));
             comb begin y <= a[0:2] and a[2:0]; end;
             end;",
        );
        assert!(msg.contains("hi < lo"), "{msg}");
    }

    #[test]
    fn rejects_loop_var_assignment() {
        let msg = check_err(
            "entity e is port(a : in bits(4); y : out bits(4));
             comb begin
               y <= a;
               for i in 0 .. 3 loop
                 i := 0;
               end loop;
             end;
             end;",
        );
        // `:=` to loop var: loop index cannot be assigned.
        assert!(msg.contains("loop index"), "{msg}");
    }

    #[test]
    fn rejects_var_shadowing() {
        let msg = check_err(
            "entity e is port(a : in bit; y : out bit);
             comb var a : bit; begin a := 1; y <= a; end;
             end;",
        );
        assert!(msg.contains("shadows"), "{msg}");
    }

    #[test]
    fn variable_flow_checks() {
        let checked = check(
            "entity e is port(a : in bits(4); y : out bits(4));
             comb
               var t : bits(4);
             begin
               t := a + 1;
               t := t * t;
               y <= t;
             end;
             end;",
        )
        .unwrap();
        assert!(checked.entity_info("e").is_some());
    }

    #[test]
    fn concat_and_reduce_widths() {
        let checked = check(
            "entity e is port(a : in bits(3); b : in bits(5); y : out bits(8); p : out bit);
             comb begin
               y <= a & b;
               p <= xorr(a) xor orr(b);
             end;
             end;",
        )
        .unwrap();
        assert!(checked.entity_info("e").is_some());
    }

    #[test]
    fn seq_register_may_hold() {
        // Registers keep their value when not assigned: no full-assignment
        // requirement in clocked processes.
        assert!(check(
            "entity e is port(clk : in bit; en : in bit; q : out bit);
             signal r : bit;
             seq(clk) begin
               if en = 1 then r <= not r; end if;
             end;
             comb begin q <= r; end;
             end;"
        )
        .is_ok());
    }

    #[test]
    fn seq_may_read_own_register() {
        assert!(check(
            "entity e is port(clk : in bit; q : out bits(4));
             signal c : bits(4);
             seq(clk) begin c <= c + 1; end;
             comb begin q <= c; end;
             end;"
        )
        .is_ok());
    }

    #[test]
    fn constants_resolve_and_check() {
        let checked = check(
            "entity e is port(a : in bits(4); y : out bit);
             constant LIMIT : bits(4) := 9;
             comb begin y <= a > LIMIT; end;
             end;",
        )
        .unwrap();
        let info = checked.entity_info("e").unwrap();
        let limit = info.symbol_by_name("LIMIT").unwrap();
        assert!(matches!(info.symbol(limit).kind, SymbolKind::Const(9)));
    }

    #[test]
    fn rejects_constant_value_overflow() {
        let msg = check_err(
            "entity e is port(a : in bits(4); y : out bit);
             constant BIG : bits(2) := 7;
             comb begin y <= orr(a); end;
             end;",
        );
        assert!(msg.contains("does not fit"), "{msg}");
    }
}
