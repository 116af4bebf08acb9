//! Load-balancer edge cases at fleet scale, all deterministic and
//! engine-identical: every board pinned at its three-handle capacity
//! (the balancer queues instead of failing), a dead link skipped by
//! least-open routing after the connect timeout, and a client that
//! hangs up mid-handshake without poisoning its board.

use issl::recmap;
use rabbit::Engine;
use rmc2000::{fleet_serve, FleetFirmware, FleetRun, FleetSpec, GuestClient, LbPolicy};

const PSK: &[u8] = b"rmc2000 shared secret";

/// Run the spec under both engines, assert every observable matches,
/// and hand back the interpreter run for the scenario assertions.
fn engine_identical(mk: impl Fn(Engine) -> FleetSpec) -> FleetRun {
    let a = fleet_serve(&mk(Engine::Interpreter));
    let b = fleet_serve(&mk(Engine::BlockCache));
    assert_eq!(a.outcomes, b.outcomes, "client transcripts agree");
    assert_eq!(a.epochs, b.epochs, "epoch counts agree");
    assert_eq!(a.virtual_us, b.virtual_us, "virtual time agrees");
    assert_eq!(a.backends, b.backends, "balancer books agree");
    assert_eq!(a.snapshot, b.snapshot, "telemetry snapshots agree");
    for (x, y) in a.boards.iter().zip(&b.boards) {
        assert_eq!(x.cycles, y.cycles, "{} cycles agree", x.label);
        assert_eq!(x.serial_tx, y.serial_tx, "{} console agrees", x.label);
    }
    a
}

/// With every handle on every board occupied, surplus clients wait in
/// the balancer's FIFO instead of being slammed into a board's backlog
/// until the connect timeout declares the board dead. Ten sessions
/// over six handles: all served, nobody failed, nobody marked dead.
#[test]
fn full_fleet_holds_surplus_sessions_instead_of_failing() {
    let run = engine_identical(|engine| {
        let clients = (0..10u8)
            .map(|i| GuestClient::Plain {
                messages: vec![
                    format!("hold-off client {i}").into_bytes(),
                    format!("and its second message {i}").into_bytes(),
                ],
            })
            .collect();
        let mut spec = FleetSpec::new(engine, 2, b"", clients);
        spec.firmware = FleetFirmware::PlainEcho;
        spec
    });

    for (i, out) in run.outcomes.iter().enumerate() {
        assert!(out.established, "client {i} establishes");
        assert_eq!(out.error, None, "client {i} clean");
    }
    let accepts: u16 = run.boards.iter().map(|b| b.accepts).sum();
    assert_eq!(accepts, 10, "every held session eventually lands");
    for (i, be) in run.backends.iter().enumerate() {
        assert_eq!(be.peak_inflight, 3, "backend {i} pinned at capacity");
        assert_eq!(be.failures, 0, "backend {i} never timed out");
        assert!(!be.dead, "backend {i} never misread as dead");
    }
    let served: u64 = run.backends.iter().map(|b| b.served).sum();
    assert_eq!(served, 10);
}

/// A board behind a dead link (100 % frame loss) never answers the
/// balancer's upstream SYN. Least-open routing tries it once, times
/// out, fails the session over to a healthy board, and marks the
/// backend dead so no later session is routed there.
#[test]
fn dead_link_board_is_skipped_by_least_open_routing() {
    let run = engine_identical(|engine| {
        let clients = (0..6u8)
            .map(|i| GuestClient::Plain {
                messages: vec![format!("around the dead board {i}").into_bytes()],
            })
            .collect();
        let mut spec = FleetSpec::new(engine, 3, b"", clients);
        spec.firmware = FleetFirmware::PlainEcho;
        spec.policy = LbPolicy::LeastOpen;
        spec.dead_links = vec![1];
        spec
    });

    for (i, out) in run.outcomes.iter().enumerate() {
        assert!(out.established, "client {i} failed over");
        assert_eq!(out.error, None, "client {i} clean");
        assert_eq!(
            out.echoed,
            format!("around the dead board {i}").into_bytes()
        );
    }

    let dead = &run.backends[1];
    assert!(dead.dead, "unreachable backend marked dead");
    assert!(dead.failures >= 1, "the timeout was observed");
    assert_eq!(dead.served, 0, "nothing completed on the dead board");
    assert_eq!(run.boards[1].accepts, 0, "no SYN survived the dead link");

    let served: u64 = run.backends.iter().map(|b| b.served).sum();
    assert_eq!(served, 6, "healthy boards absorbed the whole load");
    assert!(run.snapshot.contains("lb.failovers"), "failovers on the books");
}

/// A client opens a secure session, sends a truncated ClientHello —
/// the header promises a body that never arrives — and hangs up.
/// The guest frees the handle, the board survives, and the three
/// well-behaved secure sessions sharing the fleet are untouched.
#[test]
fn client_hanging_up_mid_handshake_frees_the_handle() {
    // `[type, len hi, len lo]` promising a full hello body, then only
    // four bytes of nonce before the FIN.
    let mut partial_hello = vec![
        recmap::REC_CLIENT_HELLO,
        0,
        recmap::CLIENT_HELLO_LEN as u8,
    ];
    partial_hello.extend_from_slice(&[0xAA, 0xBB, 0xCC, 0xDD]);

    let run = engine_identical(move |engine| {
        let mut clients = vec![GuestClient::HangUp {
            payload: partial_hello.clone(),
        }];
        for i in 0..3u8 {
            clients.push(GuestClient::secure(
                &[format!("survivor {i}").as_bytes(), b"still here"],
                PSK,
            ));
        }
        FleetSpec::new(engine, 2, PSK, clients)
    });

    let quitter = &run.outcomes[0];
    assert!(quitter.established, "the TCP connection came up");
    assert!(quitter.echoed.is_empty(), "nothing echoed to the quitter");
    for (i, out) in run.outcomes.iter().enumerate().skip(1) {
        assert!(out.established, "survivor {i} establishes");
        assert_eq!(out.error, None, "survivor {i} clean");
        assert_eq!(
            out.echoed,
            format!("survivor {}still here", i - 1).into_bytes()
        );
    }

    let accepts: u16 = run.boards.iter().map(|b| b.accepts).sum();
    assert_eq!(accepts, 4, "the aborted session still consumed an accept");
    for b in &run.boards {
        assert_eq!(b.open, 0, "{} freed every handle", b.label);
    }
    let handshakes: u32 = run
        .boards
        .iter()
        .flat_map(|b| &b.conns)
        .map(|c| u32::from(c.handshakes))
        .sum();
    assert_eq!(handshakes, 3, "only the survivors completed handshakes");
    for be in &run.backends {
        assert!(!be.dead, "a rude client is not a dead board");
    }
}

/// Regression for the balancer's dead-marking being a life sentence:
/// with `retry_after_us` set, a backend marked dead is re-probed after
/// the window, and a probe that establishes revives it. A scripted
/// link outage blacks board 1 out long enough to get it dead-marked,
/// then lifts; the next wave's probe brings the backend back into
/// rotation.
#[test]
fn dead_backend_is_reprobed_and_revived_after_retry_window() {
    use rmc2000::{FaultEvent, FaultPlan};

    let run = {
        let mk = |engine: Engine| {
            let clients = (0..4u8)
                .map(|i| GuestClient::Plain {
                    messages: vec![format!("probation client {i}").into_bytes()],
                })
                .collect();
            let mut spec = FleetSpec::new(engine, 2, b"", clients);
            spec.firmware = FleetFirmware::PlainEcho;
            spec.policy = LbPolicy::LeastOpen;
            // Board 1's link is black from boot; wave 1 gets it
            // dead-marked via the connect timeout. The outage lifts at
            // 100 ms; wave 2 dials after the 150 ms retry window.
            spec.faults = FaultPlan::new()
                .at(0, FaultEvent::SetDropRate { board: 1, rate: 1.0 })
                .at(100_000, FaultEvent::RestoreDropRate { board: 1 });
            spec.dials = vec![0, 0, 350_000, 350_000];
            spec.lb_retry_after_us = Some(150_000);
            spec
        };
        let a = fleet_serve(&mk(Engine::Interpreter));
        let b = fleet_serve(&mk(Engine::BlockCache));
        assert_eq!(a.outcomes, b.outcomes, "client transcripts agree");
        assert_eq!(a.backends, b.backends, "balancer books agree");
        assert_eq!(a.snapshot, b.snapshot, "telemetry snapshots agree");
        a
    };

    for (i, out) in run.outcomes.iter().enumerate() {
        assert!(out.established, "client {i} establishes");
        assert_eq!(out.error, None, "client {i} clean");
    }

    // Wave 1: one client timed out against the black link and failed
    // over; board 1 was dead-marked once.
    let b1 = &run.backends[1];
    assert!(b1.failures >= 1, "the outage was observed");
    assert_eq!(run.faults.failover_latencies_us.len(), 1);
    assert!(run.snapshot.contains("lb.dead_marks 1"));

    // Wave 2: the retry window had elapsed, the probe connected, the
    // backend revived and served again.
    assert_eq!(b1.revivals, 1, "board 1 revived exactly once");
    assert!(!b1.dead, "board 1 back in rotation");
    assert!(b1.served >= 1, "board 1 served after revival");
    assert!(run.boards[1].accepts >= 1, "a session landed post-revival");
    assert!(run.snapshot.contains("lb.revivals 1"));
}
