//! Tally of operations attempted and failed, fed by the correctness
//! gates. Every gate runs outside the timed regions.

use crate::check::Checker;
use spanner_core::routing::{Route, RouteError};
use spanner_graph::{NodeId, Weight};

/// Keeps at most this many failure messages for the report.
const KEPT_MESSAGES: usize = 8;

/// Operations attempted and failed, with the first failure messages.
#[derive(Debug, Default)]
pub struct Gates {
    /// Operations attempted: artifacts built and answers served.
    pub attempted: u64,
    /// Operations that failed at least one gate.
    pub failed: u64,
    /// The first failure messages.
    pub messages: Vec<String>,
    /// Corrupts the next routed answer before it is checked, so that the
    /// gates can be shown to catch a wrong answer.
    pub corrupt_next: bool,
}

impl Gates {
    /// Records one operation whose gates gave `outcome`.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.failed += 1;
            if self.messages.len() < KEPT_MESSAGES {
                self.messages.push(message);
            }
        }
    }

    /// Records `count` answers served but not sampled for checking.
    pub fn unchecked(&mut self, count: u64) {
        self.attempted += count;
    }

    /// Checks one served answer and records it.
    pub fn answer(
        &mut self,
        checker: &mut Checker<'_>,
        fault: NodeId,
        pair: (NodeId, NodeId),
        mut answer: Result<Route, RouteError>,
    ) {
        if self.corrupt_next {
            if let Ok(route) = &mut answer {
                route.dist = route.dist + Weight::UNIT;
                self.corrupt_next = false;
            }
        }
        let outcome = checker.check(fault, pair, &answer);
        self.op(outcome);
    }
}
