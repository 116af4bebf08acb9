//! Cycle-attribution profiler for the Rabbit ISS.
//!
//! The interpreter (or block engine) calls [`CycleProfiler::record`] once
//! per retired instruction with the instruction's PC and cycle cost, and
//! [`CycleProfiler::call`]/[`CycleProfiler::ret`] when control transfers
//! push or pop a frame. Attribution is two-level:
//!
//! * **flat** — a fixed `64 Ki`-slot array of per-PC cycle totals, folded
//!   to per-symbol rows through a [`SymbolTable`] built from the
//!   assembler's label table;
//! * **call-stack aware** — each distinct call stack is interned to an id
//!   the first time it appears (O(1) per instruction, O(depth) only at
//!   call/ret), and per-stack cycle totals export as flamegraph
//!   collapsed-stack lines.
//!
//! Everything is integers and total orders: reports are byte-identical
//! across runs of the same workload.

use std::collections::{BTreeMap, HashMap};

use crate::json_escape;

/// Code labels from the assembler, sorted by address; resolves a PC to
/// the nearest label at or below it.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    /// `(address, name)` sorted ascending by address, then name.
    syms: Vec<(u16, String)>,
}

impl SymbolTable {
    /// Builds a table from `(name, address)` pairs (the assembler's
    /// symbol-map shape). Duplicate addresses keep the lexically first
    /// name so resolution is deterministic.
    #[must_use]
    pub fn from_pairs<'a, I>(pairs: I) -> SymbolTable
    where
        I: IntoIterator<Item = (&'a str, u16)>,
    {
        let mut syms: Vec<(u16, String)> = pairs
            .into_iter()
            .map(|(name, addr)| (addr, name.to_string()))
            .collect();
        syms.sort();
        syms.dedup_by_key(|(addr, _)| *addr);
        SymbolTable { syms }
    }

    /// The nearest label at or below `pc`, if any.
    #[must_use]
    pub fn resolve(&self, pc: u16) -> Option<&str> {
        match self.syms.binary_search_by_key(&pc, |(addr, _)| *addr) {
            Ok(i) => Some(&self.syms[i].1),
            Err(0) => None,
            Err(i) => Some(&self.syms[i - 1].1),
        }
    }

    /// Number of labels.
    #[must_use]
    pub fn len(&self) -> usize {
        self.syms.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.syms.is_empty()
    }
}

/// Deepest call stack the profiler will intern. Frames past this depth
/// are counted but not materialised, so a runaway call chain (wild
/// execution landing in `rst`-looping garbage, unbounded recursion)
/// costs O(1) per call instead of interning ever-larger stacks.
const MAX_DEPTH: usize = 256;

/// Per-PC and per-call-stack cycle accumulator. See the module docs for
/// the recording contract.
#[derive(Debug, Clone)]
pub struct CycleProfiler {
    /// Cycles retired at each PC.
    pc_cycles: Box<[u64]>,
    /// Interned call stacks: each is the chain of frame entry PCs,
    /// root first.
    stacks: Vec<Vec<u16>>,
    /// Stack contents -> interned id.
    intern: HashMap<Vec<u16>, usize>,
    /// Cycles retired while each interned stack was current.
    stack_cycles: Vec<u64>,
    /// Currently active stack id.
    cur: usize,
    /// Frames notionally pushed past [`MAX_DEPTH`]; rets unwind these
    /// before touching the interned stack.
    overflow: u64,
    /// Total cycles recorded.
    total: u64,
}

impl CycleProfiler {
    /// A profiler whose root frame starts at `entry` (the initial PC).
    #[must_use]
    pub fn new(entry: u16) -> CycleProfiler {
        let root = vec![entry];
        let mut intern = HashMap::new();
        intern.insert(root.clone(), 0);
        CycleProfiler {
            pc_cycles: vec![0u64; 0x1_0000].into_boxed_slice(),
            stacks: vec![root],
            intern,
            stack_cycles: vec![0],
            cur: 0,
            overflow: 0,
            total: 0,
        }
    }

    /// Attributes `cycles` to the instruction at `pc` and to the current
    /// call stack. O(1).
    #[inline]
    pub fn record(&mut self, pc: u16, cycles: u64) {
        self.pc_cycles[pc as usize] += cycles;
        self.stack_cycles[self.cur] += cycles;
        self.total += cycles;
    }

    /// Pushes a frame entered at `target` (call, rst, or interrupt
    /// dispatch). Past `MAX_DEPTH` the frame is counted but not
    /// interned; cycles keep billing to the deepest interned stack.
    pub fn call(&mut self, target: u16) {
        if self.overflow > 0 || self.stacks[self.cur].len() >= MAX_DEPTH {
            self.overflow += 1;
            return;
        }
        let mut stack = self.stacks[self.cur].clone();
        stack.push(target);
        self.cur = self.intern_stack(stack);
    }

    /// Pops the current frame (ret/reti). A return past the root frame is
    /// ignored — the workload returned out of the code the profiler was
    /// attached under.
    pub fn ret(&mut self) {
        if self.overflow > 0 {
            self.overflow -= 1;
            return;
        }
        if self.stacks[self.cur].len() <= 1 {
            return;
        }
        let mut stack = self.stacks[self.cur].clone();
        stack.pop();
        self.cur = self.intern_stack(stack);
    }

    fn intern_stack(&mut self, stack: Vec<u16>) -> usize {
        if let Some(&id) = self.intern.get(&stack) {
            return id;
        }
        let id = self.stacks.len();
        self.stacks.push(stack.clone());
        self.intern.insert(stack, id);
        self.stack_cycles.push(0);
        id
    }

    /// Total cycles recorded so far.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.total
    }

    /// Current call-stack depth (including non-interned overflow frames).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.stacks[self.cur].len() + self.overflow as usize
    }

    /// Folds the accumulated cycles through `symbols` into a report.
    #[must_use]
    pub fn report(&self, symbols: &SymbolTable) -> ProfileReport {
        let mut by_symbol: BTreeMap<String, u64> = BTreeMap::new();
        let mut attributed = 0u64;
        let mut unattributed_pcs: Vec<(u16, u64)> = Vec::new();
        for (pc, &cycles) in self.pc_cycles.iter().enumerate() {
            if cycles == 0 {
                continue;
            }
            match symbols.resolve(pc as u16) {
                Some(name) => {
                    *by_symbol.entry(name.to_string()).or_insert(0) += cycles;
                    attributed += cycles;
                }
                None => unattributed_pcs.push((pc as u16, cycles)),
            }
        }
        let mut rows: Vec<SymbolCycles> = by_symbol
            .into_iter()
            .map(|(symbol, cycles)| SymbolCycles { symbol, cycles })
            .collect();
        rows.sort_by(|a, b| b.cycles.cmp(&a.cycles).then(a.symbol.cmp(&b.symbol)));

        let mut stacks: Vec<(String, u64)> = self
            .stacks
            .iter()
            .zip(&self.stack_cycles)
            .filter(|(_, &c)| c > 0)
            .map(|(frames, &c)| {
                let names: Vec<String> = frames
                    .iter()
                    .map(|&pc| match symbols.resolve(pc) {
                        Some(name) => name.to_string(),
                        None => format!("0x{pc:04x}"),
                    })
                    .collect();
                (names.join(";"), c)
            })
            .collect();
        // Same stack string can appear under two frame-PC chains (two call
        // sites into one symbol); fold them before sorting.
        let mut folded: BTreeMap<String, u64> = BTreeMap::new();
        for (line, c) in stacks.drain(..) {
            *folded.entry(line).or_insert(0) += c;
        }

        ProfileReport {
            rows,
            stacks: folded.into_iter().collect(),
            total: self.total,
            attributed,
            unattributed_pcs,
        }
    }
}

/// One per-symbol row of a [`ProfileReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolCycles {
    /// Symbol name from the assembler label table.
    pub symbol: String,
    /// Cycles attributed to PCs under this symbol.
    pub cycles: u64,
}

/// A folded profile: per-symbol rows, collapsed call stacks, and the
/// attribution tally. All exports are deterministic.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Per-symbol cycle totals, descending by cycles (name breaks ties).
    pub rows: Vec<SymbolCycles>,
    /// Collapsed stacks as `frame;frame;frame` lines with cycle totals,
    /// sorted by line.
    pub stacks: Vec<(String, u64)>,
    /// Total cycles recorded.
    pub total: u64,
    /// Cycles that resolved to a named symbol.
    pub attributed: u64,
    /// PCs (with cycle counts) that resolved to no symbol.
    pub unattributed_pcs: Vec<(u16, u64)>,
}

impl ProfileReport {
    /// Fraction of recorded cycles attributed to named symbols
    /// (1.0 when nothing was recorded).
    #[must_use]
    pub fn attributed_fraction(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.attributed as f64 / self.total as f64
        }
    }

    /// A human-readable per-symbol table.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:>14} {:>7}\n",
            "symbol", "cycles", "share"
        ));
        for row in &self.rows {
            let pct = if self.total == 0 {
                0.0
            } else {
                100.0 * row.cycles as f64 / self.total as f64
            };
            out.push_str(&format!(
                "{:<24} {:>14} {:>6.2}%\n",
                row.symbol, row.cycles, pct
            ));
        }
        let unattrib = self.total - self.attributed;
        if unattrib > 0 {
            let pct = 100.0 * unattrib as f64 / self.total as f64;
            out.push_str(&format!(
                "{:<24} {:>14} {:>6.2}%\n",
                "(unattributed)", unattrib, pct
            ));
        }
        out.push_str(&format!("{:<24} {:>14} 100.00%\n", "total", self.total));
        out
    }

    /// Flamegraph collapsed-stack lines (`a;b;c 1234`), one per distinct
    /// stack, sorted — feed straight into `flamegraph.pl`.
    #[must_use]
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for (line, cycles) in &self.stacks {
            out.push_str(&format!("{line} {cycles}\n"));
        }
        out
    }

    /// Deterministic JSON export: totals, per-symbol rows, and collapsed
    /// stacks. Integer-only values.
    #[must_use]
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"symbol\":\"{}\",\"cycles\":{}}}",
                    json_escape(&r.symbol),
                    r.cycles
                )
            })
            .collect();
        let stacks: Vec<String> = self
            .stacks
            .iter()
            .map(|(line, c)| format!("{{\"stack\":\"{}\",\"cycles\":{}}}", json_escape(line), c))
            .collect();
        format!(
            "{{\"total\":{},\"attributed\":{},\"symbols\":[{}],\"stacks\":[{}]}}",
            self.total,
            self.attributed,
            rows.join(","),
            stacks.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> SymbolTable {
        SymbolTable::from_pairs([("_main", 0x4000u16), ("_aes", 0x4100), ("__div16", 0x4800)])
    }

    #[test]
    fn resolve_picks_nearest_label_at_or_below() {
        let t = table();
        assert_eq!(t.resolve(0x4000), Some("_main"));
        assert_eq!(t.resolve(0x40ff), Some("_main"));
        assert_eq!(t.resolve(0x4100), Some("_aes"));
        assert_eq!(t.resolve(0x5000), Some("__div16"));
        assert_eq!(t.resolve(0x3fff), None);
    }

    #[test]
    fn flat_attribution_folds_to_symbols() {
        let mut p = CycleProfiler::new(0x4000);
        p.record(0x4002, 10);
        p.record(0x4105, 30);
        p.record(0x4105, 5);
        p.record(0x0100, 7); // below every label
        let r = p.report(&table());
        assert_eq!(r.total, 52);
        assert_eq!(r.attributed, 45);
        assert_eq!(r.rows[0].symbol, "_aes");
        assert_eq!(r.rows[0].cycles, 35);
        assert_eq!(r.unattributed_pcs, vec![(0x0100, 7)]);
        assert!(r.attributed_fraction() < 0.95);
    }

    #[test]
    fn call_stacks_collapse_with_symbol_names() {
        let mut p = CycleProfiler::new(0x4000);
        p.record(0x4000, 2);
        p.call(0x4100);
        p.record(0x4100, 10);
        p.call(0x4800);
        p.record(0x4800, 4);
        p.ret();
        p.record(0x4101, 1);
        p.ret();
        p.record(0x4003, 3);
        let r = p.report(&table());
        let collapsed = r.collapsed();
        assert!(collapsed.contains("_main 5\n"), "{collapsed}");
        assert!(collapsed.contains("_main;_aes 11\n"), "{collapsed}");
        assert!(collapsed.contains("_main;_aes;__div16 4\n"), "{collapsed}");
    }

    #[test]
    fn ret_past_root_is_ignored() {
        let mut p = CycleProfiler::new(0x4000);
        p.ret();
        p.ret();
        assert_eq!(p.depth(), 1);
        p.record(0x4000, 1);
        assert_eq!(p.total_cycles(), 1);
    }

    #[test]
    fn runaway_call_chains_stay_bounded() {
        // A pathological workload (e.g. wild execution looping through
        // `rst`) performs millions of calls that never return. Memory and
        // per-call cost must stay O(1) past MAX_DEPTH.
        let mut p = CycleProfiler::new(0x0000);
        for _ in 0..1_000_000 {
            p.call(0x0038);
            p.record(0x0038, 10);
        }
        assert!(p.stacks.len() <= MAX_DEPTH + 1, "interning is capped");
        assert_eq!(p.depth(), 1_000_001);
        // Unwinding balances: overflow frames pop before interned ones.
        for _ in 0..1_000_000 {
            p.ret();
        }
        assert_eq!(p.depth(), 1);
        assert_eq!(p.total_cycles(), 10_000_000);
    }

    #[test]
    fn reports_are_deterministic() {
        let run = || {
            let mut p = CycleProfiler::new(0x4000);
            for i in 0..200u16 {
                p.record(0x4000 + (i % 64), u64::from(i) + 1);
                if i % 17 == 0 {
                    p.call(0x4100 + (i % 3) * 0x10);
                    p.record(0x4100, 9);
                    p.ret();
                }
            }
            p.report(&table()).to_json()
        };
        assert_eq!(run(), run());
    }
}
