//! Deterministic execution budgets.
//!
//! The paper invalidates any tactic that runs for more than five seconds.
//! Wall-clock timeouts make benchmark results machine-dependent, so the
//! kernel instead charges every primitive reduction, unification and search
//! step against a fuel budget. Exhausting the budget raises
//! [`TacticError::Timeout`], which the
//! search layer treats exactly as the paper treats a timeout.

use crate::error::TacticError;

/// Default fuel budget for a single tactic invocation.
pub const DEFAULT_TACTIC_FUEL: u64 = 200_000;

/// A fuel counter charged by kernel primitives.
#[derive(Debug, Clone)]
pub struct Fuel {
    remaining: u64,
    /// Total fuel charged since creation (for diagnostics and benches).
    spent: u64,
}

impl Default for Fuel {
    fn default() -> Self {
        Fuel::new(DEFAULT_TACTIC_FUEL)
    }
}

impl Fuel {
    /// Creates a budget with `amount` units.
    pub fn new(amount: u64) -> Fuel {
        Fuel {
            remaining: amount,
            spent: 0,
        }
    }

    /// An effectively unlimited budget, for trusted replay of checked proofs.
    pub fn unlimited() -> Fuel {
        Fuel::new(u64::MAX / 2)
    }

    /// Charges `n` units, failing with [`TacticError::Timeout`] when the
    /// budget is exhausted.
    pub fn charge(&mut self, n: u64) -> Result<(), TacticError> {
        self.spent = self.spent.saturating_add(n);
        if self.remaining < n {
            self.remaining = 0;
            Err(TacticError::Timeout)
        } else {
            self.remaining -= n;
            Ok(())
        }
    }

    /// Charges one unit.
    pub fn tick(&mut self) -> Result<(), TacticError> {
        self.charge(1)
    }

    /// Remaining budget.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Total units charged so far.
    pub fn spent(&self) -> u64 {
        self.spent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustion_times_out() {
        let mut f = Fuel::new(2);
        assert!(f.tick().is_ok());
        assert!(f.tick().is_ok());
        assert_eq!(f.tick(), Err(TacticError::Timeout));
        assert_eq!(f.remaining(), 0);
        assert_eq!(f.spent(), 3);
    }

    #[test]
    fn charge_accounts_spent() {
        let mut f = Fuel::new(100);
        f.charge(30).unwrap();
        assert_eq!(f.remaining(), 70);
        assert_eq!(f.spent(), 30);
    }
}
