//! Execution-engine selection for the instruction-set simulators.
//!
//! Every SoC model runs its host core with a table of predecoded ops,
//! one per instruction word, by default; setting `ARCANE_INTERP=1` in
//! the environment bypasses the table, so every instruction is fetched
//! and decoded. The two produce bit- and cycle-identical results
//! (enforced by the differential tests in `crates/rv32/tests`); the
//! escape hatch exists so any future divergence can be bisected from the
//! command line without rebuilding.

use std::sync::OnceLock;

/// Which execution engine a core uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineMode {
    /// Each instruction word is decoded once and its op kept in a
    /// table indexed by PC.
    #[default]
    Block,
    /// The reference: bypass the table and fetch and decode every
    /// instruction.
    Interp,
}

impl EngineMode {
    /// Reads the mode from the `ARCANE_INTERP` environment variable
    /// (set and not `"0"` → [`EngineMode::Interp`]).
    fn from_env() -> Self {
        match std::env::var_os("ARCANE_INTERP") {
            Some(v) if v != "0" => EngineMode::Interp,
            _ => EngineMode::Block,
        }
    }

    /// The process-wide mode, resolved from the environment once on
    /// first use (benches and examples pick the engine purely through
    /// `ARCANE_INTERP`). Tests that need both engines in one process
    /// should pass a mode explicitly instead of mutating the
    /// environment.
    pub fn current() -> Self {
        static MODE: OnceLock<EngineMode> = OnceLock::new();
        *MODE.get_or_init(EngineMode::from_env)
    }

    /// Short label used in reports and logs.
    pub const fn label(self) -> &'static str {
        match self {
            EngineMode::Block => "block",
            EngineMode::Interp => "interp",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_block() {
        assert_eq!(EngineMode::default(), EngineMode::Block);
        assert_eq!(EngineMode::Block.label(), "block");
        assert_eq!(EngineMode::Interp.label(), "interp");
    }

    #[test]
    fn current_is_stable() {
        assert_eq!(EngineMode::current(), EngineMode::current());
    }
}
