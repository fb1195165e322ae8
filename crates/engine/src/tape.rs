//! The tape compiler: `AcGraph` → flat, register-allocated instruction
//! stream.
//!
//! # Tape layout
//!
//! Compilation first runs the circuit through [`problp_ac::optimize`]
//! (dead-node elimination, constant folding, common-subexpression
//! sharing: every transformation is value-preserving, bit for bit, on the
//! non-negative values ACs compute), then linearizes the surviving DAG
//! into one contiguous `Vec<Instr>` of *binary* three-address operations:
//!
//! * n-ary sums and products are lowered to left-to-right accumulator
//!   chains — exactly the fold order of the scalar tree-walk in
//!   `problp-ac`, so tape results are bit-identical to
//!   [`AcGraph::evaluate_nodes`];
//! * the [`Semiring`] is baked in at compile time: sum nodes lower to
//!   [`Instr::Add`], [`Instr::Max`] or [`Instr::MinNz`];
//! * parameter leaves are hoisted out of the instruction stream entirely:
//!   each distinct constant gets one pinned register (`0..param_count`),
//!   pre-filled once per evaluation block instead of re-converted per
//!   node visit;
//! * indicator leaves become [`Instr::LoadIndicator`] reads of a resolved
//!   `(variable, state)` slot, so evaluation never touches a hash map.
//!
//! Registers above the pinned params are allocated with a last-use free
//! list, so the register file stays far smaller than the node count —
//! this is what makes the structure-of-arrays batch layout of
//! [`crate::Engine`] fit in cache.
//!
//! # Tape modes
//!
//! [`Tape::compile`] produces the **compact** mode described above: the
//! throughput configuration, where only the root value survives a sweep.
//! [`Tape::compile_full`] produces the **full-values** mode instead: the
//! optimisation pass and the register allocator are both skipped, and
//! register `i` simply holds source node `i`'s value after a sweep —
//! exactly the per-node value vector of
//! [`problp_ac::AcGraph::evaluate_nodes`], bit for bit. The full mode is
//! what lets the max/min value analyses of `problp-bounds` and the MPE
//! argmax traceback run on the engine; see [`TapeMode`].

use problp_ac::{optimize, AcError, AcGraph, AcNode, Semiring};
use problp_bayes::VarId;

use crate::error::EngineError;

/// How a tape assigns output registers to circuit nodes.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TapeMode {
    /// Registers are reused once a node's value is dead ([`Tape::compile`]).
    /// Smallest register file, highest batch throughput; only the root
    /// value is addressable after a sweep.
    #[default]
    Compact,
    /// Every source node keeps a stable output slot: register `i` holds
    /// node `i`'s value after a sweep ([`Tape::compile_full`]). Required
    /// by per-node consumers — the max/min value analyses of
    /// `problp-bounds` and the MPE argmax traceback of
    /// [`crate::Engine::mpe_batch`].
    Full,
}

/// One tape instruction. `dst`, `lhs` and `rhs` are register indices.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Instr {
    /// `reg[dst] = indicator(slot)`: 1 unless the lane's evidence
    /// contradicts the slot's `(variable, state)`.
    LoadIndicator {
        /// Destination register.
        dst: u32,
        /// Index into the tape's indicator slot table.
        slot: u32,
    },
    /// `reg[dst] = reg[lhs] + reg[rhs]`.
    Add {
        /// Destination register.
        dst: u32,
        /// Left operand register.
        lhs: u32,
        /// Right operand register.
        rhs: u32,
    },
    /// `reg[dst] = reg[lhs] * reg[rhs]`.
    Mul {
        /// Destination register.
        dst: u32,
        /// Left operand register.
        lhs: u32,
        /// Right operand register.
        rhs: u32,
    },
    /// `reg[dst] = max(reg[lhs], reg[rhs])` (max-product sums).
    Max {
        /// Destination register.
        dst: u32,
        /// Left operand register.
        lhs: u32,
        /// Right operand register.
        rhs: u32,
    },
    /// `reg[dst] = min over non-zero of (reg[lhs], reg[rhs])`, zero only
    /// if both are zero (min-value-analysis sums, paper §3.1.4).
    MinNz {
        /// Destination register.
        dst: u32,
        /// Left operand register.
        lhs: u32,
        /// Right operand register.
        rhs: u32,
    },
}

/// Aggregate statistics of a compiled tape.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TapeStats {
    /// Nodes in the source circuit (before optimisation).
    pub source_nodes: usize,
    /// Nodes surviving optimisation (dead/duplicate nodes elided).
    pub live_nodes: usize,
    /// Instructions on the tape.
    pub instrs: usize,
    /// Total registers (pinned parameter registers included).
    pub registers: usize,
    /// Distinct parameter constants (pinned registers).
    pub params: usize,
    /// Distinct indicator slots.
    pub indicators: usize,
}

impl std::fmt::Display for TapeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} instrs over {} regs ({} params, {} indicators; {} of {} nodes live)",
            self.instrs,
            self.registers,
            self.params,
            self.indicators,
            self.live_nodes,
            self.source_nodes
        )
    }
}

/// A compiled, register-allocated execution tape.
///
/// The tape is number-system agnostic: parameter constants are stored as
/// `f64` and converted once per [`crate::Engine`] via
/// [`problp_num::Arith::from_f64`], so one tape can back engines of every
/// representation.
///
/// # Examples
///
/// ```
/// use problp_ac::{compile, Semiring};
/// use problp_bayes::networks;
/// use problp_engine::Tape;
///
/// let ac = compile(&networks::sprinkler())?;
/// let tape = Tape::compile(&ac, Semiring::SumProduct)?;
/// assert!(tape.stats().registers <= ac.len());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct Tape {
    mode: TapeMode,
    semiring: Semiring,
    /// Arity of each circuit variable (index order).
    var_arities: Vec<usize>,
    /// Parameter constants; `params[p]` lives in register `param_regs[p]`.
    params: Vec<f64>,
    /// Register of each parameter constant (`0..params.len()` in compact
    /// mode, the param node's own index in full-values mode).
    param_regs: Vec<u32>,
    /// Indicator slots as `(variable index, state)`.
    indicators: Vec<(u32, u32)>,
    instrs: Vec<Instr>,
    num_regs: u32,
    root_reg: u32,
    source_nodes: usize,
    live_nodes: usize,
}

/// Last-use register allocator state during compilation.
struct RegAlloc {
    /// Next fresh register index.
    next: u32,
    /// Registers whose value is dead and can be reused.
    free: Vec<u32>,
}

impl RegAlloc {
    fn alloc(&mut self) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            let r = self.next;
            self.next += 1;
            r
        })
    }
}

impl Tape {
    /// Compiles a circuit into a tape under the given semiring.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Circuit`] if the circuit has no root or is
    /// otherwise invalid.
    pub fn compile(ac: &AcGraph, semiring: Semiring) -> Result<Self, EngineError> {
        let (opt, _) = optimize(ac)?;
        let root = opt.root().ok_or(AcError::MissingRoot)?;
        let nodes = opt.nodes();

        // Liveness: the arena index of each node's last consumer. The root
        // is pinned alive forever.
        let mut last_use = vec![0usize; nodes.len()];
        for (i, node) in nodes.iter().enumerate() {
            for c in node.children() {
                last_use[c.index()] = i;
            }
        }
        last_use[root.index()] = usize::MAX;

        // Pass 1: pinned parameter registers. AcGraph hash-conses params,
        // so each distinct constant appears exactly once.
        let mut params = Vec::new();
        for node in nodes {
            if let AcNode::Param { value } = node {
                params.push(*value);
            }
        }

        let param_regs: Vec<u32> = (0..params.len() as u32).collect();
        let mut tape = Tape {
            mode: TapeMode::Compact,
            semiring,
            var_arities: opt.var_arities().to_vec(),
            indicators: Vec::new(),
            instrs: Vec::new(),
            num_regs: params.len() as u32,
            root_reg: 0,
            source_nodes: ac.len(),
            live_nodes: nodes.len(),
            params,
            param_regs,
        };
        let mut alloc = RegAlloc {
            next: tape.num_regs,
            free: Vec::new(),
        };

        // Pass 2: linearize. `reg_of[i]` is the register holding node i's
        // value while the node is live.
        let mut reg_of = vec![u32::MAX; nodes.len()];
        let mut next_param = 0u32;
        for (i, node) in nodes.iter().enumerate() {
            let dst = match node {
                AcNode::Param { .. } => {
                    let r = next_param;
                    next_param += 1;
                    r
                }
                AcNode::Indicator { var, state } => {
                    let slot = tape.indicators.len() as u32;
                    tape.indicators.push((var.index() as u32, *state as u32));
                    let dst = alloc.alloc();
                    tape.instrs.push(Instr::LoadIndicator { dst, slot });
                    dst
                }
                AcNode::Sum(children) | AcNode::Product(children) => {
                    debug_assert!(children.len() >= 2, "optimize elides unary operators");
                    let make = |dst: u32, lhs: u32, rhs: u32| match (node, semiring) {
                        (AcNode::Product(_), _) => Instr::Mul { dst, lhs, rhs },
                        (_, Semiring::SumProduct) => Instr::Add { dst, lhs, rhs },
                        (_, Semiring::MaxProduct) => Instr::Max { dst, lhs, rhs },
                        (_, Semiring::MinProduct) => Instr::MinNz { dst, lhs, rhs },
                    };
                    // Left-to-right accumulator chain, matching the scalar
                    // evaluator's fold order bit for bit.
                    let dst = alloc.alloc();
                    let mut acc = reg_of[children[0].index()];
                    for c in &children[1..] {
                        tape.instrs.push(make(dst, acc, reg_of[c.index()]));
                        acc = dst;
                    }
                    dst
                }
            };
            reg_of[i] = dst;

            // Free the registers of children that die at this node (never
            // pinned param registers, never the root).
            for c in node.children() {
                let ci = c.index();
                if last_use[ci] == i
                    && reg_of[ci] != u32::MAX
                    && !matches!(nodes[ci], AcNode::Param { .. })
                {
                    alloc.free.push(reg_of[ci]);
                    reg_of[ci] = u32::MAX;
                }
            }
        }

        tape.num_regs = alloc.next;
        // Always valid: param registers are never freed, and the root's
        // last_use is pinned to usize::MAX.
        tape.root_reg = reg_of[root.index()];
        debug_assert_ne!(tape.root_reg, u32::MAX, "root register stays live");
        // Debug builds statically verify every tape they compile; release
        // builds defer to the serving admission gate
        // ([`crate::CircuitPool::register`]).
        #[cfg(debug_assertions)]
        tape.verify()?;
        Ok(tape)
    }

    /// Compiles a circuit into a **full-values** tape: no optimisation
    /// pass, no register reuse — register `i` holds source node `i`'s
    /// value after a sweep, in the node order (and therefore the exact
    /// fold order) of [`AcGraph::evaluate_nodes`], bit for bit.
    ///
    /// This is the mode the max/min value analyses
    /// (`problp_bounds::AcAnalysis`) and the MPE argmax traceback
    /// ([`crate::Engine::mpe_batch`]) require; for plain batch throughput
    /// prefer [`Tape::compile`], whose register file is far smaller.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Circuit`] if the circuit has no root.
    ///
    /// # Examples
    ///
    /// ```
    /// use problp_ac::{compile, Semiring};
    /// use problp_bayes::networks;
    /// use problp_engine::{Tape, TapeMode};
    ///
    /// let ac = compile(&networks::sprinkler())?;
    /// let tape = Tape::compile_full(&ac, Semiring::SumProduct)?;
    /// assert_eq!(tape.mode(), TapeMode::Full);
    /// // One stable register per source node.
    /// assert_eq!(tape.num_regs(), ac.len());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn compile_full(ac: &AcGraph, semiring: Semiring) -> Result<Self, EngineError> {
        let root = ac
            .root()
            .ok_or(EngineError::Circuit(AcError::MissingRoot))?;
        let nodes = ac.nodes();
        let mut tape = Tape {
            mode: TapeMode::Full,
            semiring,
            var_arities: ac.var_arities().to_vec(),
            params: Vec::new(),
            param_regs: Vec::new(),
            indicators: Vec::new(),
            instrs: Vec::new(),
            num_regs: nodes.len() as u32,
            root_reg: root.index() as u32,
            source_nodes: nodes.len(),
            live_nodes: nodes.len(),
        };
        for (i, node) in nodes.iter().enumerate() {
            let dst = i as u32;
            match node {
                AcNode::Param { value } => {
                    tape.params.push(*value);
                    tape.param_regs.push(dst);
                }
                AcNode::Indicator { var, state } => {
                    let slot = tape.indicators.len() as u32;
                    tape.indicators.push((var.index() as u32, *state as u32));
                    tape.instrs.push(Instr::LoadIndicator { dst, slot });
                }
                AcNode::Sum(children) | AcNode::Product(children) => {
                    let is_product = matches!(node, AcNode::Product(_));
                    let make = |dst: u32, lhs: u32, rhs: u32| match (is_product, semiring) {
                        (true, _) => Instr::Mul { dst, lhs, rhs },
                        (false, Semiring::SumProduct) => Instr::Add { dst, lhs, rhs },
                        (false, Semiring::MaxProduct) => Instr::Max { dst, lhs, rhs },
                        (false, Semiring::MinProduct) => Instr::MinNz { dst, lhs, rhs },
                    };
                    // Same left-to-right accumulator chain as the compact
                    // mode. `AcGraph::sum`/`product` elide unary
                    // operators at construction, so every chain has at
                    // least one binary step writing `dst`.
                    debug_assert!(children.len() >= 2, "constructors elide unary operators");
                    let mut acc = children[0].index() as u32;
                    for c in &children[1..] {
                        tape.instrs.push(make(dst, acc, c.index() as u32));
                        acc = dst;
                    }
                }
            }
        }
        // Same debug-build verification as [`Tape::compile`].
        #[cfg(debug_assertions)]
        tape.verify()?;
        Ok(tape)
    }

    /// The register-assignment mode this tape was compiled in.
    pub fn mode(&self) -> TapeMode {
        self.mode
    }

    /// The semiring this tape was compiled for.
    pub fn semiring(&self) -> Semiring {
        self.semiring
    }

    /// Number of variables the compiled circuit ranges over.
    pub fn var_count(&self) -> usize {
        self.var_arities.len()
    }

    /// Arity of each circuit variable, in variable-index order.
    pub fn var_arities(&self) -> &[usize] {
        &self.var_arities
    }

    /// The parameter constants; `params()[p]` is pre-loaded into register
    /// `param_regs()[p]` before every sweep.
    pub fn params(&self) -> &[f64] {
        &self.params
    }

    /// The pinned register of each parameter constant (`0..params` in
    /// compact mode, the param node's own index in full-values mode).
    pub fn param_regs(&self) -> &[u32] {
        &self.param_regs
    }

    /// The indicator slot table as `(variable, state)` pairs.
    pub fn indicator_slots(&self) -> impl Iterator<Item = (VarId, usize)> + '_ {
        self.indicators
            .iter()
            .map(|&(v, s)| (VarId::from_index(v as usize), s as usize))
    }

    /// The instruction stream.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Total number of registers (pinned parameter registers included).
    pub fn num_regs(&self) -> usize {
        self.num_regs as usize
    }

    /// The register holding the root value after a sweep.
    pub fn root_reg(&self) -> u32 {
        self.root_reg
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> TapeStats {
        TapeStats {
            source_nodes: self.source_nodes,
            live_nodes: self.live_nodes,
            instrs: self.instrs.len(),
            registers: self.num_regs as usize,
            params: self.params.len(),
            indicators: self.indicators.len(),
        }
    }

    /// Raw access for the evaluator: `(var, state)` of a slot index.
    #[inline]
    pub(crate) fn slot(&self, slot: u32) -> (u32, u32) {
        self.indicators[slot as usize]
    }

    /// Mutable access to the raw instruction stream. Exists so that
    /// verifier mutation tests can corrupt a tape on purpose; a tape
    /// edited through this no longer carries the compiler's guarantees
    /// and must be re-checked with [`Tape::verify`]. Not a stable API.
    #[doc(hidden)]
    pub fn raw_instrs_mut(&mut self) -> &mut Vec<Instr> {
        &mut self.instrs
    }
}

impl std::fmt::Display for Tape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tape({}, {:?})", self.stats(), self.semiring)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use problp_bayes::Evidence;
    use problp_num::{Arith, F64Arith};

    fn v(i: usize) -> VarId {
        VarId::from_index(i)
    }

    /// λ_{a0}·0.3 + λ_{a1}·0.7.
    fn tiny() -> AcGraph {
        let mut g = AcGraph::new(vec![2]);
        let a0 = g.indicator(v(0), 0).unwrap();
        let a1 = g.indicator(v(0), 1).unwrap();
        let t0 = g.param(0.3).unwrap();
        let t1 = g.param(0.7).unwrap();
        let p0 = g.product(vec![a0, t0]).unwrap();
        let p1 = g.product(vec![a1, t1]).unwrap();
        let root = g.sum(vec![p0, p1]).unwrap();
        g.set_root(root);
        g
    }

    #[test]
    fn compiles_the_tiny_circuit() {
        let tape = Tape::compile(&tiny(), Semiring::SumProduct).unwrap();
        let st = tape.stats();
        assert_eq!(st.params, 2);
        assert_eq!(st.indicators, 2);
        // 2 loads + 2 muls + 1 add.
        assert_eq!(st.instrs, 5);
        assert!(st.registers < 7, "liveness reuses registers: {st}");
    }

    #[test]
    fn semiring_selects_the_sum_lowering() {
        for (semiring, pat) in [
            (Semiring::SumProduct, "Add"),
            (Semiring::MaxProduct, "Max"),
            (Semiring::MinProduct, "MinNz"),
        ] {
            let tape = Tape::compile(&tiny(), semiring).unwrap();
            let found = tape
                .instrs()
                .iter()
                .any(|i| format!("{i:?}").starts_with(pat));
            assert!(found, "{semiring:?} lowers sums to {pat}");
        }
    }

    #[test]
    fn dead_nodes_are_elided() {
        let mut g = tiny();
        // An unreachable extra parameter.
        let _ = g.param(0.123).unwrap();
        let tape = Tape::compile(&g, Semiring::SumProduct).unwrap();
        assert_eq!(tape.stats().params, 2, "dead param elided");
        assert!(tape.stats().live_nodes < g.len());
    }

    #[test]
    fn missing_root_is_an_error() {
        let g = AcGraph::new(vec![2]);
        assert!(matches!(
            Tape::compile(&g, Semiring::SumProduct).unwrap_err(),
            EngineError::Circuit(_)
        ));
        assert!(matches!(
            Tape::compile_full(&g, Semiring::SumProduct).unwrap_err(),
            EngineError::Circuit(_)
        ));
    }

    #[test]
    fn full_mode_assigns_one_register_per_node() {
        let g = tiny();
        let tape = Tape::compile_full(&g, Semiring::SumProduct).unwrap();
        assert_eq!(tape.mode(), TapeMode::Full);
        assert_eq!(tape.num_regs(), g.len());
        assert_eq!(tape.root_reg() as usize, g.root().unwrap().index());
        // Param registers are the param nodes' own indices.
        for (&r, &p) in tape.param_regs().iter().zip(tape.params()) {
            assert!(matches!(g.nodes()[r as usize], AcNode::Param { value } if value == p));
        }
        // Every non-param node's register is written by exactly one
        // destination chain.
        assert_eq!(tape.stats().live_nodes, g.len());
    }

    #[test]
    fn full_mode_keeps_dead_nodes() {
        let mut g = tiny();
        let _ = g.param(0.123).unwrap();
        let tape = Tape::compile_full(&g, Semiring::SumProduct).unwrap();
        assert_eq!(tape.stats().params, 3, "dead params keep their slot");
        assert_eq!(tape.num_regs(), g.len());
    }

    #[test]
    fn constant_root_compiles() {
        let mut g = AcGraph::new(vec![2]);
        let p = g.param(0.25).unwrap();
        g.set_root(p);
        let tape = Tape::compile(&g, Semiring::SumProduct).unwrap();
        assert_eq!(tape.instrs().len(), 0);
        assert_eq!(tape.root_reg(), 0);
        // Sanity: the engine-side contract — params live in regs [0, P).
        let mut ctx = F64Arith::new();
        assert_eq!(ctx.from_f64(tape.params()[tape.root_reg() as usize]), 0.25);
        let _ = Evidence::empty(2);
    }
}
