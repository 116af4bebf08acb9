//! Differential property test for the fault harness's core claim: a
//! [`FaultPlan`] is part of the *workload*, not of the execution
//! strategy. The same plan — a link flap, a board wedge with
//! resurrection, and a corrupted-frame storm — must produce
//! byte-identical transcripts, balancer books, fault reports and
//! telemetry on both CPU engines and under any per-epoch board visit
//! order, because fault events apply at epoch boundaries as a pure
//! function of virtual time.

use std::sync::OnceLock;

use proptest::collection::vec;
use proptest::prelude::*;

use netsim::Corruption;
use rabbit::Engine;
use rmc2000::{fleet_serve, FaultPlan, FleetRun, FleetSpec, GuestClient};

const BOARDS: usize = 3;
const PSK: &[u8] = b"rmc2000 shared secret";

/// A permutation of `0..BOARDS` from a seed, by Fisher–Yates over a
/// tiny xorshift stream.
fn permutation(seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..BOARDS).collect();
    let mut s = seed | 1;
    for i in (1..order.len()).rev() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        order.swap(i, (s as usize) % (i + 1));
    }
    order
}

/// One of everything: a flap on board 2's link, a wedge-and-resurrect
/// on board 1, and a MAC-targeting corruption storm on board 0's link
/// while a secure session may be riding it.
fn plan() -> FaultPlan {
    FaultPlan::new()
        .storm(0, 10_000, 450_000, Corruption::mac_storm(issl::recmap::REC_DATA))
        .flap(2, 60_000, 140_000, 0.5)
        .wedge_resurrect(1, 150_000, 550_000)
}

fn spec(engine: Engine, orders: Vec<Vec<usize>>) -> FleetSpec {
    let clients = vec![
        GuestClient::Secure {
            messages: vec![b"storm rider".to_vec(), b"second record".to_vec()],
            psk: PSK.to_vec(),
            tamper: rmc2000::Tamper::None,
        },
        GuestClient::Plain {
            messages: vec![b"fault plain 1".to_vec()],
        },
        GuestClient::Plain {
            messages: vec![b"fault plain 2".to_vec()],
        },
        GuestClient::Plain {
            messages: vec![b"late joiner".to_vec()],
        },
    ];
    let mut spec = FleetSpec::new(engine, BOARDS, PSK, clients);
    spec.probe_gap_us = Some(900);
    spec.faults = plan();
    spec.dials = vec![0, 0, 250_000, 700_000];
    spec.lb_retry_after_us = Some(150_000);
    spec.lb_stall_timeout_us = Some(400_000);
    spec.orders = orders;
    spec
}

/// Everything a run exposes that the fault schedule or visit order
/// could possibly touch.
fn observables(r: &FleetRun) -> impl std::fmt::Debug + PartialEq {
    (
        r.outcomes.clone(),
        r.snapshot.clone(),
        r.virtual_us,
        r.epochs,
        r.echoed_bytes,
        r.boards
            .iter()
            .map(|b| {
                (
                    b.cycles,
                    b.instructions,
                    b.accepts,
                    b.alert_kinds,
                    b.serial_tx.clone(),
                )
            })
            .collect::<Vec<_>>(),
        r.backends.clone(),
        r.faults.clone(),
    )
}

fn baseline() -> &'static FleetRun {
    static BASELINE: OnceLock<FleetRun> = OnceLock::new();
    BASELINE.get_or_init(|| fleet_serve(&spec(Engine::Interpreter, Vec::new())))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // Shuffled per-epoch visit orders vs the index-order baseline,
    // same fault plan, interpreter.
    #[test]
    fn faulted_run_survives_visit_order_shuffle(seeds in vec(0u64..1_000_000, 1..4)) {
        let orders: Vec<Vec<usize>> = seeds.into_iter().map(permutation).collect();
        let shuffled = fleet_serve(&spec(Engine::Interpreter, orders));
        prop_assert_eq!(observables(baseline()), observables(&shuffled));
    }
}

/// The same invariance holds across engines: a shuffled block-cache
/// run under the same fault plan equals the index-order interpreter
/// run observable-for-observable.
#[test]
fn faulted_block_cache_matches_interpreter_baseline() {
    let orders: Vec<Vec<usize>> = (0..3).map(|s| permutation(0xB5A1_55ED + s)).collect();
    let shuffled = fleet_serve(&spec(Engine::BlockCache, orders));
    assert_eq!(observables(baseline()), observables(&shuffled));
}

/// The faults actually happened: the plan's six events all applied,
/// the wedge black-out cost at least one balancer failover, and the
/// run still converged with every client terminated.
#[test]
fn baseline_run_reports_injected_faults() {
    let run = baseline();
    assert_eq!(run.faults.injected(), 6, "all plan events applied");
    assert!(run.outcomes.iter().all(|o| o.established || o.error.is_some()));
    assert_eq!(run.faults.wedge_snapshots.len(), 1);
}
