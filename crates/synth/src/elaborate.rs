//! RTL elaboration: checked MiniHDL → gate-level netlist.
//!
//! The elaborator symbolically executes every process, mapping each
//! signal/port/variable to a vector of nets (LSB first). Control flow
//! becomes multiplexers, `for` loops unroll, word operators expand into
//! ripple-carry/mux-tree structures via [`GateBuilder`], and clocked
//! processes infer one D flip-flop per register bit.
//!
//! ## Bit-order convention
//!
//! Primary inputs appear in the netlist in *entity data-input declaration
//! order*, each port contributing its bits LSB first and named
//! `port_bit` (e.g. `count_3`). Outputs follow the same convention. The
//! [`flatten_inputs`](crate::flatten_inputs) /
//! [`unflatten_outputs`](crate::unflatten_outputs) helpers convert
//! between behavioral [`Bits`] vectors and netlist patterns.

use crate::builder::GateBuilder;
use musa_hdl::ast::*;
use musa_hdl::{CheckedDesign, DriveClass, EntityInfo, SymbolId, SymbolKind};
use musa_netlist::{NetId, Netlist, NetlistError};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Error during synthesis.
#[derive(Debug)]
pub enum SynthError {
    /// The design has no entity with the requested name.
    EntityNotFound(String),
    /// The produced netlist failed validation (internal error).
    Netlist(NetlistError),
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::EntityNotFound(name) => write!(f, "no entity named `{name}`"),
            SynthError::Netlist(e) => write!(f, "synthesized netlist invalid: {e}"),
        }
    }
}

impl std::error::Error for SynthError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SynthError::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetlistError> for SynthError {
    fn from(e: NetlistError) -> Self {
        SynthError::Netlist(e)
    }
}

/// Synthesizes one entity of a checked design into a frozen [`Netlist`].
///
/// # Errors
///
/// Returns [`SynthError::EntityNotFound`] for an unknown entity name.
/// Internal netlist validation failures surface as
/// [`SynthError::Netlist`] (they indicate an elaborator bug, not bad
/// input — checked designs always elaborate).
///
/// # Examples
///
/// ```
/// use musa_hdl::{parse, CheckedDesign};
/// use musa_synth::synthesize;
///
/// let design = parse(
///     "entity inc is
///        port(a : in bits(4); y : out bits(4));
///        comb begin y <= a + 1; end;
///      end;",
/// )?;
/// let checked = CheckedDesign::new(design)?;
/// let nl = synthesize(&checked, "inc")?;
/// assert_eq!(nl.inputs().len(), 4);
/// assert_eq!(nl.outputs().len(), 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn synthesize(checked: &CheckedDesign, entity_name: &str) -> Result<Netlist, SynthError> {
    let (entity, info) = checked
        .entity(entity_name)
        .ok_or_else(|| SynthError::EntityNotFound(entity_name.to_string()))?;
    let mut elab = Elaborator {
        info,
        builder: GateBuilder::new(entity_name),
        env: HashMap::new(),
        dff_bits: BTreeMap::new(),
    };
    elab.run(entity)?;
    // Sweep dead logic (unread builder constants, folded-away cones) so
    // the fault universe has no unobservable-by-construction sites.
    Ok(elab.builder.finish().sweep_dead().freeze()?)
}

struct Elaborator<'a> {
    info: &'a EntityInfo,
    builder: GateBuilder,
    /// Current symbolic value of every symbol, LSB first.
    env: HashMap<SymbolId, Vec<NetId>>,
    /// Register symbol → flip-flop output nets.
    dff_bits: BTreeMap<SymbolId, Vec<NetId>>,
}

impl<'a> Elaborator<'a> {
    fn run(&mut self, entity: &Entity) -> Result<(), SynthError> {
        // 1. Primary inputs (data inputs only; clocks are implicit).
        for &port in &self.info.data_inputs {
            let sym = self.info.symbol(port);
            let bits: Vec<NetId> = (0..sym.width)
                .map(|i| {
                    self.builder
                        .netlist_mut()
                        .add_input(format!("{}_{i}", sym.name))
                })
                .collect();
            self.env.insert(port, bits);
        }
        // 2. Constants.
        for (i, sym) in self.info.symbols.iter().enumerate() {
            if let SymbolKind::Const(value) = sym.kind {
                let bits = self.builder.constant_word(sym.width, value);
                self.env.insert(SymbolId(i as u32), bits);
            }
        }
        // 2b. Undriven signals hold their initial value forever (they
        //     arise from SDL mutants deleting a sole register assignment).
        for (i, sym) in self.info.symbols.iter().enumerate() {
            let id = SymbolId(i as u32);
            if matches!(sym.kind, SymbolKind::Signal) && !self.info.drivers.contains_key(&id) {
                let bits = self.builder.constant_word(sym.width, sym.init);
                self.env.insert(id, bits);
            }
        }
        // 3. Registers: one flop per bit.
        for (i, sym) in self.info.symbols.iter().enumerate() {
            let id = SymbolId(i as u32);
            if self.info.drive_class.get(&id) == Some(&DriveClass::Register) {
                let bits: Vec<NetId> = (0..sym.width)
                    .map(|b| {
                        let init = (sym.init >> b) & 1 == 1;
                        self.builder
                            .netlist_mut()
                            .add_dff(format!("{}_{b}", sym.name), init)
                    })
                    .collect();
                self.dff_bits.insert(id, bits.clone());
                self.env.insert(id, bits);
            }
        }
        // 4. Combinational processes in dependency order. Driven wires are
        //    seeded with zeros so partial (bit/slice) assignments can
        //    read-modify-write; the checker's full-assignment guarantee
        //    ensures the seed never escapes.
        for &pidx in &self.info.comb_order {
            let process = &entity.processes[pidx];
            for (i, symbol) in self.info.symbols.iter().enumerate() {
                let sym = SymbolId(i as u32);
                if self.info.drivers.get(&sym) == Some(&pidx) && !self.env.contains_key(&sym) {
                    let bits = self.builder.constant_word(symbol.width, 0);
                    self.env.insert(sym, bits);
                }
            }
            self.init_vars(process, pidx);
            let mut env = self.env.clone();
            self.exec_stmts(&process.body, &mut env);
            self.env = env;
        }
        // 5. Clocked processes: compute next-state and wire the flops.
        for &pidx in &self.info.seq_processes {
            let process = &entity.processes[pidx];
            self.init_vars(process, pidx);
            let mut env = self.env.clone();
            self.exec_stmts(&process.body, &mut env);
            for (&sym, dffs) in &self.dff_bits {
                if self.info.drivers.get(&sym) == Some(&pidx) {
                    let next = &env[&sym];
                    for (&ff, &d) in dffs.iter().zip(next) {
                        self.builder.netlist_mut().connect_dff(ff, d);
                    }
                }
            }
        }
        // 6. Outputs.
        for &port in &self.info.outputs {
            let bits = self.env[&port].clone();
            for bit in bits {
                self.builder.netlist_mut().mark_output(bit);
            }
        }
        Ok(())
    }

    fn init_vars(&mut self, process: &Process, pidx: usize) {
        let _ = process;
        for (i, sym) in self.info.symbols.iter().enumerate() {
            if let SymbolKind::Var { process: p } = sym.kind {
                if p == pidx {
                    let bits = self.builder.constant_word(sym.width, sym.init);
                    self.env.insert(SymbolId(i as u32), bits);
                }
            }
        }
    }

    fn exec_stmts(&mut self, stmts: &[Stmt], env: &mut HashMap<SymbolId, Vec<NetId>>) {
        for stmt in stmts {
            self.exec_stmt(stmt, env);
        }
    }

    fn exec_stmt(&mut self, stmt: &Stmt, env: &mut HashMap<SymbolId, Vec<NetId>>) {
        match stmt {
            Stmt::Assign { target, value, .. } => {
                let sym = self.info.resolved[&target.id];
                let value_bits = self.expr_bits(value, env);
                match &target.sel {
                    None => {
                        env.insert(sym, value_bits);
                    }
                    Some(Select::Slice { hi: _, lo }) => {
                        let current = env[&sym].clone();
                        let mut next = current;
                        for (k, bit) in value_bits.into_iter().enumerate() {
                            next[*lo as usize + k] = bit;
                        }
                        env.insert(sym, next);
                    }
                    Some(Select::Index(index)) => {
                        let bit = value_bits[0];
                        if let Expr::Literal { value: i, .. } = index {
                            let mut next = env[&sym].clone();
                            next[*i as usize] = bit;
                            env.insert(sym, next);
                        } else {
                            let index_bits = self.expr_bits(index, env);
                            let current = env[&sym].clone();
                            let next: Vec<NetId> = current
                                .iter()
                                .enumerate()
                                .map(|(i, &old)| {
                                    let sel = self.builder.index_is(&index_bits, i as u64);
                                    self.builder.mux(sel, bit, old)
                                })
                                .collect();
                            env.insert(sym, next);
                        }
                    }
                }
            }
            Stmt::If {
                arms, else_body, ..
            } => {
                self.exec_if(arms, else_body.as_deref(), env);
            }
            Stmt::Case {
                subject,
                arms,
                default,
                ..
            } => {
                let subject_bits = self.expr_bits(subject, env);
                // Lower to a prioritised if/elsif chain.
                self.exec_case(&subject_bits, arms, default.as_deref(), env);
            }
            Stmt::For {
                var, lo, hi, body, ..
            } => {
                let loop_sym = self.info.loop_symbol(body, &var.name);
                for i in *lo..=*hi {
                    if let Some(sym) = loop_sym {
                        let width = self.info.symbol(sym).width;
                        let bits = self.builder.constant_word(width, i);
                        env.insert(sym, bits);
                    }
                    self.exec_stmts(body, env);
                }
            }
            Stmt::Null { .. } => {}
        }
    }

    fn exec_if(
        &mut self,
        arms: &[(Expr, Vec<Stmt>)],
        else_body: Option<&[Stmt]>,
        env: &mut HashMap<SymbolId, Vec<NetId>>,
    ) {
        let mut branches = Vec::with_capacity(arms.len());
        for (cond, body) in arms {
            let cond_bit = self.expr_bits(cond, env)[0];
            let mut env_then = env.clone();
            self.exec_stmts(body, &mut env_then);
            branches.push((cond_bit, env_then));
        }
        self.merge_chain(branches, else_body, env);
    }

    fn exec_case(
        &mut self,
        subject_bits: &[NetId],
        arms: &[CaseArm],
        default: Option<&[Stmt]>,
        env: &mut HashMap<SymbolId, Vec<NetId>>,
    ) {
        let mut branches = Vec::with_capacity(arms.len());
        for arm in arms {
            let mut cond = self.builder.zero();
            for &choice in &arm.choices {
                let hit = self.builder.index_is(subject_bits, choice);
                cond = self.builder.or(cond, hit);
            }
            let mut env_then = env.clone();
            self.exec_stmts(&arm.body, &mut env_then);
            branches.push((cond, env_then));
        }
        self.merge_chain(branches, default, env);
    }

    /// Folds a prioritised arm chain into `env`. Each branch is an arm's
    /// condition and the environment its body left, both computed from
    /// the environment the whole `if`/`case` started from. Runs the
    /// fallback (`else`/`default`) body, then merges the arms from the
    /// last to the first, so the first arm's condition has the final
    /// say.
    ///
    /// Together with [`Self::exec_if`]/[`Self::exec_case`] this creates
    /// gates in the order a recursive lowering would — conditions and
    /// bodies first to last, the fallback, then the muxes last to first —
    /// without a stack frame per arm, so arm lists of any length
    /// elaborate.
    fn merge_chain(
        &mut self,
        branches: Vec<(NetId, HashMap<SymbolId, Vec<NetId>>)>,
        fallback: Option<&[Stmt]>,
        env: &mut HashMap<SymbolId, Vec<NetId>>,
    ) {
        let mut merged = env.clone();
        if let Some(body) = fallback {
            self.exec_stmts(body, &mut merged);
        }
        for (cond, env_then) in branches.into_iter().rev() {
            let mut outer = env.clone();
            self.merge(cond, env_then, merged, &mut outer);
            merged = outer;
        }
        *env = merged;
    }

    /// Merges two branch environments through per-bit muxes, in
    /// [`SymbolId`] order so the netlist is the same on every run.
    fn merge(
        &mut self,
        cond: NetId,
        env_then: HashMap<SymbolId, Vec<NetId>>,
        env_else: HashMap<SymbolId, Vec<NetId>>,
        env: &mut HashMap<SymbolId, Vec<NetId>>,
    ) {
        let mut env_then: Vec<(SymbolId, Vec<NetId>)> = env_then.into_iter().collect();
        env_then.sort_unstable_by_key(|&(sym, _)| sym);
        for (sym, then_bits) in env_then {
            // Symbols introduced inside one branch only (loop indices) are
            // dead after it; skip them.
            let Some(else_bits) = env_else.get(&sym) else {
                continue;
            };
            if then_bits == *else_bits {
                env.insert(sym, then_bits);
            } else {
                let merged: Vec<NetId> = then_bits
                    .iter()
                    .zip(else_bits)
                    .map(|(&t, &e)| self.builder.mux(cond, t, e))
                    .collect();
                env.insert(sym, merged);
            }
        }
    }

    fn expr_bits(&mut self, e: &Expr, env: &HashMap<SymbolId, Vec<NetId>>) -> Vec<NetId> {
        match e {
            Expr::Literal { id, value, .. } => {
                let width = self.info.widths[id];
                self.builder.constant_word(width, *value)
            }
            Expr::Ref { id, .. } => env[&self.info.resolved[id]].clone(),
            Expr::Index { base, index, .. } => {
                let base_bits = self.expr_bits(base, env);
                if let Expr::Literal { value, .. } = index.as_ref() {
                    vec![base_bits[*value as usize]]
                } else {
                    let index_bits = self.expr_bits(index, env);
                    vec![self.builder.dyn_index(&base_bits, &index_bits)]
                }
            }
            Expr::Slice { base, hi, lo, .. } => {
                let base_bits = self.expr_bits(base, env);
                base_bits[*lo as usize..=*hi as usize].to_vec()
            }
            Expr::Unary { op, arg, .. } => {
                let bits = self.expr_bits(arg, env);
                match op {
                    UnaryOp::Not => bits.iter().map(|&b| self.builder.not(b)).collect(),
                }
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                let a = self.expr_bits(lhs, env);
                let b = self.expr_bits(rhs, env);
                match op {
                    BinOp::And => self.zip2(&a, &b, |s, x, y| s.and(x, y)),
                    BinOp::Or => self.zip2(&a, &b, |s, x, y| s.or(x, y)),
                    BinOp::Xor => self.zip2(&a, &b, |s, x, y| s.xor(x, y)),
                    BinOp::Nand => self.zip2(&a, &b, |s, x, y| s.nand(x, y)),
                    BinOp::Nor => self.zip2(&a, &b, |s, x, y| s.nor(x, y)),
                    BinOp::Xnor => self.zip2(&a, &b, |s, x, y| s.xnor(x, y)),
                    BinOp::Add => self.builder.add_words(&a, &b),
                    BinOp::Sub => self.builder.sub_words(&a, &b),
                    BinOp::Mul => self.builder.mul_words(&a, &b),
                    BinOp::Eq => vec![self.builder.eq_words(&a, &b)],
                    BinOp::Ne => {
                        let eq = self.builder.eq_words(&a, &b);
                        vec![self.builder.not(eq)]
                    }
                    BinOp::Lt => vec![self.builder.lt_words(&a, &b)],
                    BinOp::Le => {
                        let gt = self.builder.lt_words(&b, &a);
                        vec![self.builder.not(gt)]
                    }
                    BinOp::Gt => vec![self.builder.lt_words(&b, &a)],
                    BinOp::Ge => {
                        let lt = self.builder.lt_words(&a, &b);
                        vec![self.builder.not(lt)]
                    }
                }
            }
            Expr::Reduce { op, arg, .. } => {
                let bits = self.expr_bits(arg, env);
                vec![match op {
                    ReduceOp::Or => self.builder.or_reduce(&bits),
                    ReduceOp::And => self.builder.and_reduce(&bits),
                    ReduceOp::Xor => self.builder.xor_reduce(&bits),
                }]
            }
            Expr::Concat { lhs, rhs, .. } => {
                // lhs = high bits, rhs = low bits; LSB-first storage.
                let high = self.expr_bits(lhs, env);
                let mut bits = self.expr_bits(rhs, env);
                bits.extend(high);
                bits
            }
            Expr::Shift { op, arg, amount, .. } => {
                let bits = self.expr_bits(arg, env);
                let w = bits.len();
                let k = *amount as usize;
                let zero = self.builder.zero();
                match op {
                    ShiftOp::Left => {
                        let mut out = vec![zero; w];
                        if k < w {
                            out[k..].copy_from_slice(&bits[..w - k]);
                        }
                        out
                    }
                    ShiftOp::Right => {
                        let mut out = vec![zero; w];
                        if k < w {
                            out[..w - k].copy_from_slice(&bits[k..]);
                        }
                        out
                    }
                }
            }
        }
    }

    fn zip2(
        &mut self,
        a: &[NetId],
        b: &[NetId],
        f: impl Fn(&mut GateBuilder, NetId, NetId) -> NetId,
    ) -> Vec<NetId> {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| f(&mut self.builder, x, y))
            .collect()
    }
}
