//! Deterministic fault scheduling for fleet runs: link flaps, board
//! wedges and corrupted-frame storms, scripted in virtual time.
//!
//! A [`FaultPlan`] is a list of (virtual-µs, event) pairs built with the
//! combinators below and handed to the fleet driver via
//! [`crate::FleetSpec::faults`]. The driver applies due events at epoch
//! boundaries — after the world has reached the barrier, before the
//! balancer pumps — so the application point is a pure function of
//! virtual time: identical on both CPU engines and under any per-epoch
//! board visit order, which is exactly what the differential fault
//! proptest pins.
//!
//! Three fault shapes:
//!
//! - **Link flap** ([`FaultPlan::flap`]): a board's balancer link
//!   drops packets at `rate` for a window, then restores. TCP
//!   retransmission rides it out; sessions finish late but intact.
//! - **Board wedge** ([`FaultPlan::wedge`],
//!   [`FaultPlan::wedge_resurrect`]): the fleet stops advancing the
//!   board's epochs *and* the board's balancer link goes black. The
//!   link kill is not an extra: `netsim`'s TCP stack lives host-side,
//!   so a frozen board's listener would still answer SYNs — only a dead
//!   wire makes the balancer's 5 ms connect timeout (and, for sessions
//!   already established, the stall timeout) carry the load.
//! - **Corruption storm** ([`FaultPlan::storm`]): in-flight TCP
//!   payloads on the board's balancer link get byte flips per a
//!   [`Corruption`] spec. The damage evades TCP (frames still ACK) and
//!   surfaces at the application layer — the issl record MAC — which
//!   must answer with its deterministic close alert.

use netsim::Corruption;

/// One scripted fault, addressed to a board's balancer link or to the
/// board itself.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// Set the board's balancer-link drop rate (a flap onset).
    SetDropRate {
        /// Board index.
        board: usize,
        /// New drop probability.
        rate: f64,
    },
    /// Restore the board's balancer-link drop rate to its spec-time
    /// base value (flap end; 1.0 again for `dead_links` boards).
    RestoreDropRate {
        /// Board index.
        board: usize,
    },
    /// Freeze the board: its epochs stop advancing and its balancer
    /// link goes black until a [`FaultEvent::Resurrect`].
    Wedge {
        /// Board index.
        board: usize,
    },
    /// Unfreeze a wedged board and restore its link. Lost time is lost:
    /// the board resumes from its frozen cycle count, it does not
    /// replay the missed epochs.
    Resurrect {
        /// Board index.
        board: usize,
    },
    /// Arm frame corruption on the board's balancer link.
    StormStart {
        /// Board index.
        board: usize,
        /// What to corrupt, and how.
        spec: Corruption,
    },
    /// Disarm frame corruption on the board's balancer link.
    StormEnd {
        /// Board index.
        board: usize,
    },
}

impl FaultEvent {
    /// The board the event is addressed to.
    pub fn board(&self) -> usize {
        match self {
            FaultEvent::SetDropRate { board, .. }
            | FaultEvent::RestoreDropRate { board }
            | FaultEvent::Wedge { board }
            | FaultEvent::Resurrect { board }
            | FaultEvent::StormStart { board, .. }
            | FaultEvent::StormEnd { board } => *board,
        }
    }
}

/// A fault event bound to its virtual due time.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledFault {
    /// Virtual µs at (or after) which the event applies.
    pub at_us: u64,
    /// What happens.
    pub event: FaultEvent,
}

/// A deterministic virtual-time script of fault events.
///
/// Events with equal due times apply in insertion order. The same plan
/// against the same spec replays byte-identically.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<ScheduledFault>,
}

impl FaultPlan {
    /// An empty plan (no faults — the driver's default).
    #[must_use]
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedules a raw event at `at_us`.
    #[must_use]
    pub fn at(mut self, at_us: u64, event: FaultEvent) -> FaultPlan {
        self.events.push(ScheduledFault { at_us, event });
        self
    }

    /// A transient link flap: board `board`'s balancer link drops
    /// packets with probability `rate` over `[from_us, to_us)`, then
    /// restores to its base rate.
    #[must_use]
    pub fn flap(self, board: usize, from_us: u64, to_us: u64, rate: f64) -> FaultPlan {
        assert!(from_us < to_us, "flap window is non-empty");
        self.at(from_us, FaultEvent::SetDropRate { board, rate })
            .at(to_us, FaultEvent::RestoreDropRate { board })
    }

    /// Wedges board `board` at `at_us`, permanently.
    #[must_use]
    pub fn wedge(self, board: usize, at_us: u64) -> FaultPlan {
        self.at(at_us, FaultEvent::Wedge { board })
    }

    /// Wedges board `board` at `at_us` and resurrects it at `back_us`.
    #[must_use]
    pub fn wedge_resurrect(self, board: usize, at_us: u64, back_us: u64) -> FaultPlan {
        assert!(at_us < back_us, "resurrection follows the wedge");
        self.at(at_us, FaultEvent::Wedge { board })
            .at(back_us, FaultEvent::Resurrect { board })
    }

    /// A corruption storm on board `board`'s balancer link over
    /// `[from_us, to_us)`.
    #[must_use]
    pub fn storm(self, board: usize, from_us: u64, to_us: u64, spec: Corruption) -> FaultPlan {
        assert!(from_us < to_us, "storm window is non-empty");
        self.at(from_us, FaultEvent::StormStart { board, spec })
            .at(to_us, FaultEvent::StormEnd { board })
    }

    /// The events in application order: stable-sorted by due time, so
    /// same-time events keep insertion order.
    #[must_use]
    pub fn compiled(&self) -> Vec<ScheduledFault> {
        let mut evs = self.events.clone();
        evs.sort_by_key(|e| e.at_us);
        evs
    }
}

/// One plan event as the driver actually applied it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedFault {
    /// The event's scheduled due time.
    pub at_us: u64,
    /// The virtual time the driver applied it (the first epoch boundary
    /// at or after `at_us`).
    pub applied_us: u64,
    /// Human-readable description (`wedge board1`, …).
    pub what: String,
}

/// The fault side of a fleet run's result: what was injected, what it
/// cost, and the frozen-telemetry evidence for wedges.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultReport {
    /// Every plan event, in application order, with its actual
    /// application time.
    pub applied: Vec<AppliedFault>,
    /// Final `net.packets.corrupted` count — frames the storms damaged.
    pub corrupted_frames: u64,
    /// The balancer's failover-latency book: virtual µs each failed
    /// upstream connect waited before the balancer moved on.
    pub failover_latencies_us: Vec<u64>,
    /// For each `Wedge` event: the board's `board<i>.net.board.*`
    /// telemetry lines captured at wedge time. A wedged board's
    /// counters must not move, so these lines reappear verbatim in the
    /// final snapshot (unless the board was resurrected).
    pub wedge_snapshots: Vec<(usize, String)>,
}

impl FaultReport {
    /// Number of fault events injected.
    #[must_use]
    pub fn injected(&self) -> usize {
        self.applied.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_compiles_in_time_order_with_stable_ties() {
        let plan = FaultPlan::new()
            .flap(1, 500, 900, 0.3)
            .wedge_resurrect(0, 200, 700)
            .storm(2, 200, 650, Corruption::mac_storm(5));
        let evs = plan.compiled();
        let times: Vec<u64> = evs.iter().map(|e| e.at_us).collect();
        assert_eq!(times, vec![200, 200, 500, 650, 700, 900]);
        // Equal due times keep insertion order: the wedge was added
        // before the storm start.
        assert!(matches!(evs[0].event, FaultEvent::Wedge { board: 0 }));
        assert!(matches!(evs[1].event, FaultEvent::StormStart { board: 2, .. }));
    }

    #[test]
    #[should_panic(expected = "flap window is non-empty")]
    fn empty_flap_window_is_rejected() {
        let _ = FaultPlan::new().flap(0, 100, 100, 0.5);
    }
}
