//! E5 (paper §5.3, Figure 3), cross-crate: the ported server on the
//! Dynamic C stack serves at most three connections simultaneously; a
//! fourth and fifth wait for a handler and are served later. Increasing
//! the cap requires "recompiling" — i.e., spawning a server with more
//! handler costatements.

use bench::e5_run;

#[test]
fn three_handlers_cap_concurrency_at_three() {
    let r = e5_run(5);
    assert_eq!(r.handlers, 3, "the Figure 3 configuration");
    assert_eq!(r.served, 5, "everyone is served eventually");
    assert!(
        r.max_active <= 3,
        "never more than three simultaneous, saw {}",
        r.max_active
    );
    assert!(
        r.max_active >= 2,
        "the offered load did overlap, saw {}",
        r.max_active
    );
}

/// The same three-connection cap, but on the *guest NIC path*: compiled
/// C firmware on a one-board fleet, where the limit is the NIC register
/// file's three connection handles rather than the costatement count.
/// Five clients dial in at once. The balancer caps each backend at the
/// board's handle count (`MAX_CONNS`), so the fourth and fifth wait at
/// the balancer until an earlier client hangs up and frees a handle;
/// everyone is served eventually. The console, probed throughout, never
/// reports more than three open handles.
#[test]
fn guest_nic_path_holds_fourth_connection_at_the_register_file() {
    use rabbit::Engine;
    use rmc2000::{fleet_serve, FleetFirmware, FleetSpec, GuestClient};

    let messages: Vec<Vec<u8>> = (0..5).map(|i| vec![0x40 + i as u8; 120 + 10 * i]).collect();
    let clients = messages
        .iter()
        .map(|m| GuestClient::Plain {
            messages: vec![m.clone()],
        })
        .collect();
    let mut spec = FleetSpec::new(Engine::BlockCache, 1, b"", clients);
    spec.firmware = FleetFirmware::PlainEcho;
    spec.probe_gap_us = Some(500);
    let r = fleet_serve(&spec);
    for (i, (sent, got)) in messages.iter().zip(&r.outcomes).enumerate() {
        assert_eq!(sent, &got.echoed, "client {i} served eventually");
    }
    let (backend, board) = (&r.backends[0], &r.boards[0]);
    assert_eq!(
        backend.peak_inflight, 3,
        "exactly three sessions at once: the hold-off binds at the handle count"
    );
    assert_eq!(backend.served, 5, "the held-off clients are served later");
    assert_eq!(board.accepts, 5, "all five connections accepted in turn");
    assert_eq!(board.open, 0, "teardown freed every handle");
    assert!(!board.serial_tx.is_empty(), "console answered probes");
    for line in board.serial_tx.chunks(3) {
        assert_eq!(line[0], b'S', "line shape: {line:?}");
        let n = line[1] - b'0';
        assert!(
            n <= 3,
            "the register file never binds more than three, saw {n}"
        );
    }
}

#[test]
fn recompiling_with_more_costatements_raises_the_cap() {
    use std::sync::atomic::Ordering;

    use dynamicc::Scheduler;
    use issl::host::{spawn_driver, spawn_secure_client, standard_rig};
    use issl::rmc::{spawn_rmc_server, RmcServerConfig};
    use issl::{CipherSuite, ClientConfig, ClientKx};
    use netsim::Endpoint;
    use sockets::dynic::Stack;

    // "We could easily increase the number of processes (and hence
    // simultaneous connections) by adding more costatements, but the
    // program would have to be re-compiled."
    let (net, board, client_host) = standard_rig(0x55);
    let stack = Stack::sock_init(&net, board);
    let mut sched = Scheduler::new();
    let config = RmcServerConfig {
        handlers: 5,
        ..RmcServerConfig::default()
    };
    let server = spawn_rmc_server(&mut sched, &stack, &config);
    let results: Vec<_> = (0..5usize)
        .map(|i| {
            spawn_secure_client(
                &mut sched,
                &net,
                client_host,
                Endpoint::new(net.with(|w| w.host_ip(board)), config.port),
                ClientConfig {
                    suite: CipherSuite::AES128,
                    kx: ClientKx::PreShared(config.psk.clone()),
                },
                vec![i as u8; 4000],
                400,
                900 + i as u64,
            )
        })
        .collect();
    spawn_driver(&mut sched, &net, 2_000);

    let mut rounds = 0u64;
    while !results
        .iter()
        .all(|r| r.done.load(Ordering::SeqCst) || r.failed.load(Ordering::SeqCst))
    {
        sched.tick();
        rounds += 1;
        assert!(rounds < 3_000_000, "run stalled");
    }
    for (i, r) in results.iter().enumerate() {
        assert!(!r.failed.load(Ordering::SeqCst), "client {i} failed");
    }
    assert!(
        server.stats.max_active.load(Ordering::SeqCst) >= 4,
        "five handlers allow more than three simultaneous connections, saw {}",
        server.stats.max_active.load(Ordering::SeqCst)
    );
}
