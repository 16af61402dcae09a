//! Cycle-based behavioral simulator for checked MiniHDL designs.
//!
//! The simulator follows a two-phase model:
//!
//! 1. **Evaluation** — combinational processes run once each, in the
//!    dependency order computed by the checker, so all wires settle.
//! 2. **Clock edge** — clocked processes compute next register values from
//!    the settled pre-edge state (non-blocking *across* processes,
//!    blocking *within* a process), then all registers commit at once.
//!
//! [`Simulator::step`] packages the standard test-application protocol:
//! apply primary inputs, settle, sample primary outputs, then (for
//! sequential designs) clock once.

use crate::ast::*;
use crate::check::{CheckedDesign, EntityInfo, SymbolId, SymbolKind};
use crate::error::{HdlError, Result};
use crate::span::Span;
use crate::value::Bits;
use std::collections::HashMap;

/// A behavioral simulator for one entity of a [`CheckedDesign`].
///
/// # Examples
///
/// ```
/// use musa_hdl::{parse, Bits, CheckedDesign, Simulator};
///
/// let design = parse(
///     "entity counter is
///        port(clk : in bit; rst : in bit; q : out bits(4));
///        signal c : bits(4);
///        seq(clk) begin
///          if rst = 1 then c <= 0; else c <= c + 1; end if;
///        end;
///        comb begin q <= c; end;
///      end;",
/// )?;
/// let checked = CheckedDesign::new(design)?;
/// let mut sim = Simulator::new(&checked, "counter")?;
/// sim.reset();
/// let zero = Bits::new(1, 0);
/// sim.step(&[zero]); // rst = 0 → count becomes 1
/// let outs = sim.step(&[zero]);
/// assert_eq!(outs[0].raw(), 1); // q observed before the second edge
/// # Ok::<(), musa_hdl::HdlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    checked: &'a CheckedDesign,
    entity: &'a Entity,
    info: &'a EntityInfo,
    /// Current value of every symbol, indexed by [`SymbolId`].
    values: Vec<Bits>,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator for the named entity, in the reset state.
    ///
    /// # Errors
    ///
    /// Returns an error if the design has no entity with that name.
    pub fn new(checked: &'a CheckedDesign, entity_name: &str) -> Result<Self> {
        let (entity, info) = checked.entity(entity_name).ok_or_else(|| {
            HdlError::sim(format!("no entity named `{entity_name}`"), Span::dummy())
        })?;
        let values = info
            .symbols
            .iter()
            .map(|s| Bits::new(s.width, s.init))
            .collect();
        let mut sim = Self {
            checked,
            entity,
            info,
            values,
        };
        sim.reset();
        Ok(sim)
    }

    /// The checked design this simulator runs.
    pub fn checked(&self) -> &'a CheckedDesign {
        self.checked
    }

    /// The entity metadata.
    pub fn info(&self) -> &'a EntityInfo {
        self.info
    }

    /// Restores the power-on state: registers and signals take their
    /// declared initial values, inputs go to zero, wires are re-settled.
    pub fn reset(&mut self) {
        for (i, sym) in self.info.symbols.iter().enumerate() {
            self.values[i] = Bits::new(sym.width, sym.init);
        }
        self.eval();
    }

    /// Sets one data input by symbol id.
    ///
    /// # Panics
    ///
    /// Panics if the symbol is not an input port or the width differs —
    /// both indicate harness bugs, not data-dependent conditions.
    pub fn set_input(&mut self, input: SymbolId, value: Bits) {
        let sym = self.info.symbol(input);
        assert!(
            matches!(sym.kind, SymbolKind::PortIn { .. }),
            "`{}` is not an input port",
            sym.name
        );
        assert_eq!(sym.width, value.width(), "width mismatch on `{}`", sym.name);
        self.values[input.0 as usize] = value;
    }

    /// Sets one data input by name.
    ///
    /// # Errors
    ///
    /// Returns an error if no input port has that name.
    pub fn set_input_by_name(&mut self, name: &str, value: Bits) -> Result<()> {
        let id = self
            .info
            .symbol_by_name(name)
            .filter(|&id| matches!(self.info.symbol(id).kind, SymbolKind::PortIn { .. }))
            .ok_or_else(|| {
                HdlError::sim(format!("no input port named `{name}`"), Span::dummy())
            })?;
        self.set_input(id, value);
        Ok(())
    }

    /// Reads the current value of any symbol.
    pub fn value(&self, id: SymbolId) -> Bits {
        self.values[id.0 as usize]
    }

    /// Reads a symbol's current value by name.
    pub fn value_by_name(&self, name: &str) -> Option<Bits> {
        self.info.symbol_by_name(name).map(|id| self.value(id))
    }

    /// The current primary-output values, in declaration order.
    pub fn outputs(&self) -> Vec<Bits> {
        self.info.outputs.iter().map(|&id| self.value(id)).collect()
    }

    /// Settles all combinational processes.
    pub fn eval(&mut self) {
        for &pidx in &self.info.comb_order {
            self.exec_process(pidx, None);
        }
    }

    /// Applies one rising clock edge to every clocked process, then
    /// re-settles the wires.
    pub fn clock(&mut self) {
        let mut pending: Vec<(SymbolId, Bits)> = Vec::new();
        for &pidx in &self.info.seq_processes {
            let mut overlay = HashMap::new();
            self.exec_process(pidx, Some(&mut overlay));
            pending.extend(overlay);
        }
        for (sym, value) in pending {
            self.values[sym.0 as usize] = value;
        }
        self.eval();
    }

    /// Applies one test vector: sets the data inputs (declaration order),
    /// settles, samples the outputs, then clocks once if the design is
    /// sequential. Returns the sampled outputs.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not match the data-input count/widths.
    pub fn step(&mut self, inputs: &[Bits]) -> Vec<Bits> {
        assert_eq!(
            inputs.len(),
            self.info.data_inputs.len(),
            "expected {} input values",
            self.info.data_inputs.len()
        );
        for (&port, &value) in self.info.data_inputs.iter().zip(inputs) {
            self.set_input(port, value);
        }
        self.eval();
        let outputs = self.outputs();
        if !self.info.is_combinational() {
            self.clock();
        }
        outputs
    }

    /// Runs a whole sequence from the reset state and returns the output
    /// transcript (one output vector per applied input vector).
    pub fn run(&mut self, sequence: &[Vec<Bits>]) -> Vec<Vec<Bits>> {
        self.reset();
        sequence.iter().map(|v| self.step(v)).collect()
    }

    // ---- process execution ----------------------------------------------

    /// Executes one process. `overlay` is `Some` for clocked processes:
    /// signal writes are staged there (and read back within the same
    /// process), leaving `self.values` at the pre-edge state.
    fn exec_process(&mut self, pidx: usize, overlay: Option<&mut HashMap<SymbolId, Bits>>) {
        let process = &self.entity.processes[pidx];
        // Re-initialize the process variables.
        for (i, sym) in self.info.symbols.iter().enumerate() {
            if let SymbolKind::Var { process: p } = sym.kind {
                if p == pidx {
                    self.values[i] = Bits::new(sym.width, sym.init);
                }
            }
        }
        let mut ctx = Exec {
            info: self.info,
            values: &mut self.values,
            overlay,
        };
        ctx.stmts(&process.body);
    }
}

/// Per-activation execution context.
struct Exec<'s, 'o> {
    info: &'s EntityInfo,
    values: &'s mut Vec<Bits>,
    overlay: Option<&'o mut HashMap<SymbolId, Bits>>,
}

impl Exec<'_, '_> {
    fn read(&self, sym: SymbolId) -> Bits {
        if let Some(overlay) = &self.overlay {
            let s = self.info.symbol(sym);
            if matches!(s.kind, SymbolKind::Signal | SymbolKind::PortOut) {
                if let Some(v) = overlay.get(&sym) {
                    return *v;
                }
            }
        }
        self.values[sym.0 as usize]
    }

    fn write(&mut self, sym: SymbolId, value: Bits) {
        let s = self.info.symbol(sym);
        let staged = matches!(s.kind, SymbolKind::Signal | SymbolKind::PortOut);
        if staged {
            if let Some(overlay) = &mut self.overlay {
                overlay.insert(sym, value);
                return;
            }
        }
        self.values[sym.0 as usize] = value;
    }

    fn stmts(&mut self, stmts: &[Stmt]) {
        for stmt in stmts {
            self.stmt(stmt);
        }
    }

    fn stmt(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::Assign { target, value, .. } => {
                let sym = self.info.resolved[&target.id];
                let width = self.info.symbol(sym).width;
                match &target.sel {
                    None => {
                        let v = self.expr(value);
                        self.write(sym, v);
                    }
                    Some(Select::Index(index)) => {
                        let ix = self.expr(index).raw();
                        let v = self.expr(value);
                        if ix < width as u64 {
                            let cur = self.read(sym);
                            self.write(sym, cur.with_bit(ix as u32, v.as_bool()));
                        }
                        // Out-of-range dynamic writes are dropped, matching
                        // the synthesized mux-tree behaviour.
                    }
                    Some(Select::Slice { hi, lo }) => {
                        let v = self.expr(value);
                        let cur = self.read(sym);
                        self.write(sym, cur.with_slice(*hi, *lo, v));
                    }
                }
            }
            Stmt::If {
                arms, else_body, ..
            } => {
                for (cond, body) in arms {
                    if self.expr(cond).as_bool() {
                        self.stmts(body);
                        return;
                    }
                }
                if let Some(body) = else_body {
                    self.stmts(body);
                }
            }
            Stmt::Case {
                subject,
                arms,
                default,
                ..
            } => {
                let v = self.expr(subject).raw();
                for arm in arms {
                    if arm.choices.contains(&v) {
                        self.stmts(&arm.body);
                        return;
                    }
                }
                if let Some(body) = default {
                    self.stmts(body);
                }
            }
            Stmt::For {
                var, lo, hi, body, ..
            } => {
                let loop_sym = self.info.loop_symbol(body, &var.name);
                for i in *lo..=*hi {
                    if let Some(sym) = loop_sym {
                        let width = self.info.symbol(sym).width;
                        self.values[sym.0 as usize] = Bits::new(width, i);
                    }
                    self.stmts(body);
                }
            }
            Stmt::Null { .. } => {}
        }
    }

    fn expr(&self, e: &Expr) -> Bits {
        match e {
            Expr::Literal { id, value, .. } => {
                let width = self.info.widths[id];
                Bits::new(width, *value)
            }
            Expr::Ref { id, .. } => self.read(self.info.resolved[id]),
            Expr::Index { base, index, .. } => {
                let b = self.expr(base);
                let ix = self.expr(index).raw();
                if ix < b.width() as u64 {
                    Bits::bit_value(b.bit(ix as u32))
                } else {
                    // Out-of-range dynamic reads yield 0 (mux-tree default).
                    Bits::bit_value(false)
                }
            }
            Expr::Slice { base, hi, lo, .. } => self.expr(base).slice(*hi, *lo),
            Expr::Unary { op, arg, .. } => match op {
                UnaryOp::Not => self.expr(arg).not(),
            },
            Expr::Binary { op, lhs, rhs, .. } => {
                let a = self.expr(lhs);
                let b = self.expr(rhs);
                match op {
                    BinOp::And => a.and(b),
                    BinOp::Or => a.or(b),
                    BinOp::Xor => a.xor(b),
                    BinOp::Nand => a.nand(b),
                    BinOp::Nor => a.nor(b),
                    BinOp::Xnor => a.xnor(b),
                    BinOp::Add => a.add(b),
                    BinOp::Sub => a.sub(b),
                    BinOp::Mul => a.mul(b),
                    BinOp::Eq => a.cmp_eq(b),
                    BinOp::Ne => a.cmp_eq(b).not(),
                    BinOp::Lt => a.cmp_lt(b),
                    BinOp::Le => b.cmp_lt(a).not(),
                    BinOp::Gt => b.cmp_lt(a),
                    BinOp::Ge => a.cmp_lt(b).not(),
                }
            }
            Expr::Reduce { op, arg, .. } => {
                let v = self.expr(arg);
                match op {
                    ReduceOp::Or => v.reduce_or(),
                    ReduceOp::And => v.reduce_and(),
                    ReduceOp::Xor => v.reduce_xor(),
                }
            }
            Expr::Concat { lhs, rhs, .. } => self.expr(lhs).concat(self.expr(rhs)),
            Expr::Shift { op, arg, amount, .. } => {
                let v = self.expr(arg);
                match op {
                    ShiftOp::Left => v.shl(*amount),
                    ShiftOp::Right => v.shr(*amount),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::CheckedDesign;
    use crate::parser::parse;

    fn sim_for<'a>(checked: &'a CheckedDesign, name: &str) -> Simulator<'a> {
        Simulator::new(checked, name).unwrap()
    }

    fn checked(src: &str) -> CheckedDesign {
        CheckedDesign::new(parse(src).unwrap()).unwrap()
    }

    fn b(w: u32, v: u64) -> Bits {
        Bits::new(w, v)
    }

    #[test]
    fn combinational_gate() {
        let d = checked(
            "entity g is port(a : in bit; b : in bit; y : out bit);
             comb begin y <= a and not b; end;
             end;",
        );
        let mut sim = sim_for(&d, "g");
        for (a, bb, expect) in [(0, 0, 0), (0, 1, 0), (1, 0, 1), (1, 1, 0)] {
            let outs = sim.step(&[b(1, a), b(1, bb)]);
            assert_eq!(outs[0].raw(), expect, "a={a} b={bb}");
        }
    }

    #[test]
    fn arithmetic_datapath() {
        let d = checked(
            "entity alu is
               port(x : in bits(8); y : in bits(8); op : in bits(2); z : out bits(8));
             comb begin
               case op is
                 when 0 => z <= x + y;
                 when 1 => z <= x - y;
                 when 2 => z <= x * y;
                 when others => z <= x xor y;
               end case;
             end;
             end;",
        );
        let mut sim = sim_for(&d, "alu");
        assert_eq!(sim.step(&[b(8, 200), b(8, 100), b(2, 0)])[0].raw(), 44);
        assert_eq!(sim.step(&[b(8, 5), b(8, 9), b(2, 1)])[0].raw(), 252);
        assert_eq!(sim.step(&[b(8, 20), b(8, 20), b(2, 2)])[0].raw(), 144);
        assert_eq!(sim.step(&[b(8, 0xF0), b(8, 0xFF), b(2, 3)])[0].raw(), 0x0F);
    }

    #[test]
    fn counter_counts_and_resets() {
        let d = checked(
            "entity counter is
               port(clk : in bit; rst : in bit; q : out bits(4));
             signal c : bits(4);
             seq(clk) begin
               if rst = 1 then c <= 0; else c <= c + 1; end if;
             end;
             comb begin q <= c; end;
             end;",
        );
        let mut sim = sim_for(&d, "counter");
        let lo = b(1, 0);
        let hi = b(1, 1);
        // Outputs are sampled before each edge.
        for expect in 0..5 {
            assert_eq!(sim.step(&[lo])[0].raw(), expect);
        }
        assert_eq!(sim.step(&[hi])[0].raw(), 5); // reset applied at this edge
        assert_eq!(sim.step(&[lo])[0].raw(), 0);
        assert_eq!(sim.step(&[lo])[0].raw(), 1);
    }

    #[test]
    fn counter_wraps() {
        let d = checked(
            "entity c is port(clk : in bit; q : out bits(2));
             signal r : bits(2);
             seq(clk) begin r <= r + 1; end;
             comb begin q <= r; end;
             end;",
        );
        let mut sim = sim_for(&d, "c");
        let vals: Vec<u64> = (0..6).map(|_| sim.step(&[])[0].raw()).collect();
        assert_eq!(vals, vec![0, 1, 2, 3, 0, 1]);
    }

    #[test]
    fn blocking_within_seq_process() {
        // v is assigned then read within the same activation: the read
        // sees the new value (blocking), so w gets the *incremented* c.
        let d = checked(
            "entity p is port(clk : in bit; q : out bits(4); w : out bits(4));
             signal c : bits(4);
             signal d : bits(4);
             seq(clk) begin
               c <= c + 1;
               d <= c;
             end;
             comb begin q <= c; w <= d; end;
             end;",
        );
        let mut sim = sim_for(&d, "p");
        sim.step(&[]); // after edge: c=1, d=1 (blocking read of staged c)
        let outs = sim.step(&[]);
        assert_eq!(outs[0].raw(), 1);
        assert_eq!(outs[1].raw(), 1);
    }

    #[test]
    fn nonblocking_across_seq_processes() {
        // Two processes exchange registers: both read the pre-edge values.
        let d = checked(
            "entity swap is port(clk : in bit; qa : out bit; qb : out bit);
             signal a : bit := 1;
             signal b : bit := 0;
             seq(clk) begin a <= b; end;
             seq(clk) begin b <= a; end;
             comb begin qa <= a; qb <= b; end;
             end;",
        );
        let mut sim = sim_for(&d, "swap");
        let o0 = sim.step(&[]);
        assert_eq!((o0[0].raw(), o0[1].raw()), (1, 0));
        let o1 = sim.step(&[]);
        assert_eq!((o1[0].raw(), o1[1].raw()), (0, 1), "values must swap");
        let o2 = sim.step(&[]);
        assert_eq!((o2[0].raw(), o2[1].raw()), (1, 0));
    }

    #[test]
    fn variables_are_reinitialized_each_activation() {
        let d = checked(
            "entity v is port(a : in bits(4); y : out bits(4));
             comb
               var acc : bits(4);
             begin
               acc := acc + a;
               y <= acc;
             end;
             end;",
        );
        let mut sim = sim_for(&d, "v");
        // If acc persisted, the second application would give 6.
        assert_eq!(sim.step(&[b(4, 3)])[0].raw(), 3);
        assert_eq!(sim.step(&[b(4, 3)])[0].raw(), 3);
    }

    #[test]
    fn for_loop_reverses_bits() {
        let d = checked(
            "entity rev is port(a : in bits(8); y : out bits(8));
             comb begin
               for i in 0 .. 7 loop
                 y[i] <= a[7 - i];
               end loop;
             end;
             end;",
        );
        let mut sim = sim_for(&d, "rev");
        assert_eq!(sim.step(&[b(8, 0b1000_0010)])[0].raw(), 0b0100_0001);
        assert_eq!(sim.step(&[b(8, 0xFF)])[0].raw(), 0xFF);
        assert_eq!(sim.step(&[b(8, 0x01)])[0].raw(), 0x80);
    }

    #[test]
    fn dynamic_index_selects_and_defaults() {
        let d = checked(
            "entity mux is port(a : in bits(4); s : in bits(3); y : out bit);
             comb begin y <= a[s]; end;
             end;",
        );
        let mut sim = sim_for(&d, "mux");
        assert_eq!(sim.step(&[b(4, 0b1010), b(3, 1)])[0].raw(), 1);
        assert_eq!(sim.step(&[b(4, 0b1010), b(3, 0)])[0].raw(), 0);
        assert_eq!(sim.step(&[b(4, 0b1010), b(3, 3)])[0].raw(), 1);
        // Out-of-range select reads 0.
        assert_eq!(sim.step(&[b(4, 0b1111), b(3, 5)])[0].raw(), 0);
    }

    #[test]
    fn concat_slice_shift_pipeline() {
        let d = checked(
            "entity m is port(a : in bits(4); y : out bits(8));
             comb begin
               y <= (a & a[3:0]) xor (0x0F sll 2);
             end;
             end;",
        );
        let mut sim = sim_for(&d, "m");
        assert_eq!(sim.step(&[b(4, 0b1001)])[0].raw(), 0b1001_1001 ^ 0b0011_1100);
    }

    #[test]
    fn constants_participate() {
        let d = checked(
            "entity k is port(a : in bits(4); y : out bit);
             constant LIMIT : bits(4) := 9;
             comb begin y <= a > LIMIT; end;
             end;",
        );
        let mut sim = sim_for(&d, "k");
        assert_eq!(sim.step(&[b(4, 9)])[0].raw(), 0);
        assert_eq!(sim.step(&[b(4, 10)])[0].raw(), 1);
    }

    #[test]
    fn comparisons_all_directions() {
        let d = checked(
            "entity cmp is port(a : in bits(4); b : in bits(4);
                               lt : out bit; le : out bit; gt : out bit;
                               ge : out bit; eq : out bit; ne : out bit);
             comb begin
               lt <= a < b; le <= a <= b; gt <= a > b;
               ge <= a >= b; eq <= a = b; ne <= a /= b;
             end;
             end;",
        );
        let mut sim = sim_for(&d, "cmp");
        let outs = sim.step(&[b(4, 3), b(4, 7)]);
        let raws: Vec<u64> = outs.iter().map(|o| o.raw()).collect();
        assert_eq!(raws, vec![1, 1, 0, 0, 0, 1]);
        let outs = sim.step(&[b(4, 7), b(4, 7)]);
        let raws: Vec<u64> = outs.iter().map(|o| o.raw()).collect();
        assert_eq!(raws, vec![0, 1, 0, 1, 1, 0]);
    }

    #[test]
    fn reset_restores_power_on_state() {
        let d = checked(
            "entity c is port(clk : in bit; q : out bits(4));
             signal r : bits(4) := 5;
             seq(clk) begin r <= r + 1; end;
             comb begin q <= r; end;
             end;",
        );
        let mut sim = sim_for(&d, "c");
        sim.step(&[]);
        sim.step(&[]);
        assert_eq!(sim.value_by_name("r").unwrap().raw(), 7);
        sim.reset();
        assert_eq!(sim.value_by_name("r").unwrap().raw(), 5);
        assert_eq!(sim.outputs()[0].raw(), 5);
    }

    #[test]
    fn run_produces_transcript() {
        let d = checked(
            "entity t is port(clk : in bit; d : in bit; q : out bit);
             signal r : bit;
             seq(clk) begin r <= d; end;
             comb begin q <= r; end;
             end;",
        );
        let mut sim = sim_for(&d, "t");
        let seq = vec![vec![b(1, 1)], vec![b(1, 0)], vec![b(1, 1)], vec![b(1, 1)]];
        let transcript = sim.run(&seq);
        let qs: Vec<u64> = transcript.iter().map(|o| o[0].raw()).collect();
        // Flop delays d by one cycle, initial 0.
        assert_eq!(qs, vec![0, 1, 0, 1]);
    }

    #[test]
    fn wire_chain_across_processes() {
        let d = checked(
            "entity w is port(a : in bits(4); y : out bits(4));
             signal s1 : bits(4);
             signal s2 : bits(4);
             comb begin y <= s2 + 1; end;
             comb begin s2 <= s1 * 2; end;
             comb begin s1 <= a + 1; end;
             end;",
        );
        let mut sim = sim_for(&d, "w");
        // y = ((a+1)*2)+1
        assert_eq!(sim.step(&[b(4, 3)])[0].raw(), 9);
        assert_eq!(sim.step(&[b(4, 0)])[0].raw(), 3);
    }

    #[test]
    fn missing_entity_is_error() {
        let d = checked(
            "entity a is port(x : in bit; y : out bit);
             comb begin y <= x; end;
             end;",
        );
        assert!(Simulator::new(&d, "nope").is_err());
    }

    #[test]
    fn set_input_by_name_errors_on_output() {
        let d = checked(
            "entity a is port(x : in bit; y : out bit);
             comb begin y <= x; end;
             end;",
        );
        let mut sim = sim_for(&d, "a");
        assert!(sim.set_input_by_name("y", b(1, 0)).is_err());
        assert!(sim.set_input_by_name("x", b(1, 1)).is_ok());
    }
}
