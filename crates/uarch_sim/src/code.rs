//! Code segments and the instruction-fetch model.
//!
//! Every database component (parser, lock manager, B-tree code, a compiled
//! stored procedure, ...) is registered as a *module* with a static code
//! footprint, an average dynamic *reuse* (how many times each fetched
//! instruction is executed per invocation — loops raise it), and a
//! *branchiness* (probability that the fetch stream jumps to a far target
//! inside the segment instead of falling through).
//!
//! Executing `n` instructions of a module touches
//! `n / (instrs_per_line * reuse)` instruction-cache lines, walked
//! sequentially from the segment start with occasional far jumps. Repeat
//! executions of the same line within an invocation hit L1I trivially and
//! are therefore not replayed through the cache model (only counted), which
//! keeps simulation cost proportional to *unique* line touches.
//!
//! This reproduces the instruction-side phenomena the paper reports:
//! a hot path larger than L1I thrashes it cyclically (the dominant L1I
//! stalls); a hot path larger than its L2 share adds L2I misses (DBMS D);
//! and a compiled transaction whose segment fits in L1I produces almost no
//! instruction stalls at all (HyPer).

use serde::{Deserialize, Serialize};

/// Instructions per 64-byte cache line (x86 average ~4 bytes/instruction).
pub const INSTRS_PER_LINE: u64 = 16;

/// Identifier of a registered code module.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ModuleId(pub u16);

impl ModuleId {
    /// Catch-all module for activity issued before any module is bound.
    /// Always registered at id 0 with a minimal footprint.
    pub const UNATTRIBUTED: ModuleId = ModuleId(0);
}

/// Static description of a code module.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ModuleSpec {
    /// Human-readable name (stable across runs; used in reports).
    pub name: String,
    /// Static code footprint in bytes.
    pub footprint: u32,
    /// Average dynamic executions of each fetched instruction per
    /// invocation (>= 1.0). Tight loops have high reuse; straight-line
    /// branchy glue code has reuse near 1.
    pub reuse: f64,
    /// Probability per line-advance of a far jump within the segment.
    pub branchiness: f64,
    /// Whether this module counts as "inside the OLTP engine" (storage
    /// manager) for the paper's Figure 7 breakdown.
    pub engine_side: bool,
}

impl ModuleSpec {
    /// A module with default reuse (2.0), moderate branchiness (0.02), not
    /// engine-side.
    pub fn new(name: impl Into<String>, footprint: u32) -> Self {
        ModuleSpec {
            name: name.into(),
            footprint: footprint.max(64),
            reuse: 2.0,
            branchiness: 0.02,
            engine_side: false,
        }
    }

    /// Set the dynamic reuse factor.
    #[must_use]
    pub fn reuse(mut self, r: f64) -> Self {
        assert!(r >= 1.0, "reuse must be >= 1.0");
        self.reuse = r;
        self
    }

    /// Set the far-jump probability.
    #[must_use]
    pub fn branchiness(mut self, b: f64) -> Self {
        assert!((0.0..=1.0).contains(&b));
        self.branchiness = b;
        self
    }

    /// Mark the module as part of the OLTP engine (storage manager).
    #[must_use]
    pub fn engine_side(mut self, yes: bool) -> Self {
        self.engine_side = yes;
        self
    }

    /// Segment length in cache lines.
    pub fn lines(&self) -> u64 {
        (u64::from(self.footprint)).div_ceil(64).max(1)
    }
}

/// A registered module: spec plus its allocated code-segment base line.
#[derive(Clone, Debug)]
pub struct Module {
    /// Static description.
    pub spec: ModuleSpec,
    /// First line number of the code segment.
    pub base_line: u64,
}

/// Immutable fetch parameters of one code module. [`crate::Mem`] snapshots
/// this at bind time so `exec` never looks the module up.
#[derive(Clone, Copy, Debug)]
pub struct CodeDesc {
    pub base_line: u64,
    pub seg_lines: u64,
    pub reuse: f64,
    pub branchiness: f64,
}

impl CodeDesc {
    pub(crate) fn of(m: &Module) -> Self {
        CodeDesc {
            base_line: m.base_line,
            seg_lines: m.spec.lines(),
            reuse: m.spec.reuse,
            branchiness: m.spec.branchiness,
        }
    }
}

/// Registry of all modules of a machine. Code segments are laid out
/// contiguously in a dedicated region of the simulated address space so
/// they contend in the caches exactly like real text sections do.
#[derive(Debug, Default)]
pub struct ModuleRegistry {
    modules: Vec<Module>,
    next_line: u64,
}

/// Base of the code region (line number). Data allocations live far above.
pub const CODE_REGION_BASE_LINE: u64 = 0x0080_0000; // byte addr 0x2000_0000

impl ModuleRegistry {
    /// Create a registry pre-populated with the `UNATTRIBUTED` module.
    pub fn new() -> Self {
        let mut r = ModuleRegistry {
            modules: Vec::new(),
            next_line: CODE_REGION_BASE_LINE,
        };
        let id = r.register(ModuleSpec::new("(unattributed)", 4096).reuse(4.0));
        debug_assert_eq!(id, ModuleId::UNATTRIBUTED);
        r
    }

    /// Register a module, allocating its code segment. Panics after 65k
    /// modules (far beyond any engine's needs).
    pub fn register(&mut self, spec: ModuleSpec) -> ModuleId {
        let id = u16::try_from(self.modules.len()).expect("too many modules");
        let base_line = self.next_line;
        // Pad segments to distinct 4 KB "pages" so unrelated modules do not
        // share lines.
        self.next_line += spec.lines().div_ceil(64) * 64;
        self.modules.push(Module { spec, base_line });
        ModuleId(id)
    }

    /// Look up a module.
    pub fn get(&self, id: ModuleId) -> &Module {
        &self.modules[id.0 as usize]
    }

    /// Number of registered modules.
    pub fn len(&self) -> usize {
        self.modules.len()
    }

    /// True when only the built-in module exists.
    pub fn is_empty(&self) -> bool {
        self.modules.len() <= 1
    }

    /// Names in id order.
    pub fn names(&self) -> Vec<String> {
        self.modules.iter().map(|m| m.spec.name.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_allocates_disjoint_segments() {
        let mut r = ModuleRegistry::new();
        let a = r.register(ModuleSpec::new("a", 10_000));
        let b = r.register(ModuleSpec::new("b", 64));
        let (ma, mb) = (r.get(a), r.get(b));
        assert!(ma.base_line + ma.spec.lines() <= mb.base_line);
    }

    #[test]
    fn unattributed_is_id_zero() {
        let r = ModuleRegistry::new();
        assert_eq!(r.get(ModuleId::UNATTRIBUTED).spec.name, "(unattributed)");
    }

    #[test]
    fn lines_rounds_up() {
        assert_eq!(ModuleSpec::new("x", 65).lines(), 2);
        assert_eq!(ModuleSpec::new("x", 64).lines(), 1);
        // Footprints are clamped to at least one line.
        assert_eq!(ModuleSpec::new("x", 1).lines(), 1);
    }

    #[test]
    #[should_panic(expected = "reuse")]
    fn reuse_below_one_rejected() {
        let _ = ModuleSpec::new("x", 64).reuse(0.5);
    }
}
