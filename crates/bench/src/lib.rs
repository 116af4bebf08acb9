//! The experiment engine: one function per experiment in DESIGN.md's
//! index, shared by the `repro` binary, the Criterion benches and the
//! examples. Every function is deterministic for a given seed.

pub mod e8;

pub use e8::{e8_rsa_ablation, modmul_c_source, RsaAblation};

use std::sync::atomic::Ordering;

use aes_rabbit::{measure, testbench_workload, Implementation, Measurement};
use dynamicc::Scheduler;
use issl::host::{
    spawn_driver, spawn_plain_client, spawn_plain_echo, spawn_redirector, spawn_secure_client,
    standard_rig, ComputeCost, RedirectorConfig,
};
use issl::rmc::{spawn_rmc_server, RmcServerConfig};
use issl::{CipherSuite, ClientConfig, ClientKx, FileLog, Filesystem, ServerConfig, ServerKx};
use netsim::Endpoint;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rsa::KeyPair;

/// Standard block count for the AES testbench (keys pumped through both
/// implementations, as §6 describes).
pub const E1_BLOCKS: usize = 16;

/// One row of the E1/E2/E3 table.
#[derive(Debug, Clone)]
pub struct AesRow {
    /// Implementation label.
    pub label: String,
    /// Cycles per 16-byte block.
    pub cycles_per_block: u64,
    /// Program size in bytes (excluding workload buffers).
    pub program_bytes: usize,
}

/// Runs one AES implementation over the standard workload.
///
/// # Panics
///
/// Panics if the implementation fails to build, run, or verify — all of
/// which are bugs, not environmental conditions.
pub fn run_aes(imp: &Implementation) -> Measurement {
    let (key, blocks) = testbench_workload(E1_BLOCKS, 0x5EED);
    measure(imp, &key, &blocks).expect("AES implementation verified against FIPS reference")
}

/// The optimization sweep of E2: baseline, each switch alone, all
/// together, plus the hand assembly for reference.
pub fn aes_configurations() -> Vec<(String, Implementation)> {
    let base = dcc::Options::baseline();
    vec![
        (
            "C direct port (debug on)".into(),
            Implementation::CompiledC(base),
        ),
        (
            "C + disabling debugging".into(),
            Implementation::CompiledC(dcc::Options {
                debug: false,
                ..base
            }),
        ),
        (
            "C + data to root memory".into(),
            Implementation::CompiledC(dcc::Options {
                root_data: true,
                ..base
            }),
        ),
        (
            "C + loop unrolling".into(),
            Implementation::CompiledC(dcc::Options {
                unroll: true,
                ..base
            }),
        ),
        (
            "C + compiler optimization".into(),
            Implementation::CompiledC(dcc::Options {
                peephole: true,
                ..base
            }),
        ),
        (
            "C + all of the above".into(),
            Implementation::CompiledC(dcc::Options::all_optimizations()),
        ),
        ("hand-optimized assembly".into(), Implementation::HandAsm),
    ]
}

/// Produces the full E1/E2/E3 table.
pub fn aes_table() -> Vec<AesRow> {
    aes_configurations()
        .into_iter()
        .map(|(label, imp)| {
            let m = run_aes(&imp);
            AesRow {
                label,
                cycles_per_block: m.cycles_per_block,
                program_bytes: m.program_bytes,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// E4: SSL overhead
// ---------------------------------------------------------------------

/// One measurement point of the E4 experiment.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputPoint {
    /// Bytes exchanged per connection.
    pub bytes_per_conn: usize,
    /// Connections served.
    pub connections: u32,
    /// Virtual microseconds for the whole run.
    pub virtual_us: u64,
    /// Application throughput in KB per virtual second.
    pub kb_per_sec: f64,
}

fn rsa_config(seed: u64) -> ServerConfig {
    let mut rng = StdRng::seed_from_u64(seed);
    ServerConfig {
        suites: vec![CipherSuite::AES128],
        kx: ServerKx::Rsa(KeyPair::generate(512, &mut rng)),
    }
}

/// Runs `connections` sequential request/response exchanges of
/// `bytes_per_conn` each, secure or plain, and reports virtual-time
/// throughput. The secure path pays the era-2002 crypto cost.
///
/// # Panics
///
/// Panics if any exchange fails or stalls (a bug in the stack).
pub fn e4_run(secure: bool, bytes_per_conn: usize, connections: u32) -> ThroughputPoint {
    let (net, server, client) = standard_rig(0xE4);
    let mut sched = Scheduler::new();

    if secure {
        let fs = Filesystem::new();
        let log = FileLog::new(fs, "/var/log/issl.log");
        spawn_redirector(
            &mut sched,
            &net,
            server,
            &RedirectorConfig {
                port: 443,
                backend: None,
                tls: rsa_config(7),
                workers: 2,
                seed: 77,
                compute: ComputeCost::era_2002(),
            },
            log,
        );
    } else {
        spawn_plain_echo(&mut sched, &net, server, 443, 2);
    }
    // Fine-grained driver quantum: E4 measures latency-sensitive
    // transactional exchanges, so the clock must advance in small steps.
    spawn_driver(&mut sched, &net, 100);

    let start = net.now();
    let ep = Endpoint::new(net.with(|w| w.host_ip(server)), 443);
    let payload: Vec<u8> = (0..bytes_per_conn).map(|i| (i % 251) as u8).collect();
    for c in 0..connections {
        let result = if secure {
            spawn_secure_client(
                &mut sched,
                &net,
                client,
                ep,
                ClientConfig {
                    suite: CipherSuite::AES128,
                    kx: ClientKx::Rsa,
                },
                payload.clone(),
                1024,
                1000 + u64::from(c),
            )
        } else {
            spawn_plain_client(&mut sched, &net, client, ep, payload.clone(), 1024)
        };
        let mut rounds = 0u64;
        while !result.done.load(Ordering::SeqCst) {
            assert!(
                !result.failed.load(Ordering::SeqCst),
                "connection {c} failed (secure={secure})"
            );
            sched.tick();
            rounds += 1;
            assert!(rounds < 3_000_000, "connection {c} stalled");
        }
    }
    let virtual_us = net.now() - start;
    let total_bytes = bytes_per_conn as u64 * u64::from(connections);
    ThroughputPoint {
        bytes_per_conn,
        connections,
        virtual_us,
        kb_per_sec: total_bytes as f64 / 1024.0 / (virtual_us as f64 / 1_000_000.0),
    }
}

/// The E4 sweep: request sizes from short transactional exchanges (where
/// the handshake dominates — Goldberg et al.'s order of magnitude) to
/// bulk streams (where the symmetric cipher sets the floor).
pub fn e4_sweep() -> Vec<(ThroughputPoint, ThroughputPoint)> {
    [128usize, 1024, 16 * 1024, 128 * 1024]
        .into_iter()
        .map(|size| {
            let conns = if size <= 1024 { 8 } else { 2 };
            let plain = e4_run(false, size, conns);
            let tls = e4_run(true, size, conns);
            (plain, tls)
        })
        .collect()
}

// ---------------------------------------------------------------------
// E5: the three-connection cap
// ---------------------------------------------------------------------

/// Result of the E5 run.
#[derive(Debug, Clone, Copy)]
pub struct E5Result {
    /// Clients that completed.
    pub served: u64,
    /// High-water mark of simultaneously-served connections.
    pub max_active: u64,
    /// Handler costatements compiled into the server.
    pub handlers: usize,
}

/// Runs `clients` concurrent clients against the Figure 3 server (three
/// handler costatements + one `tcp_tick` costatement).
///
/// # Panics
///
/// Panics if any client fails or the run stalls.
pub fn e5_run(clients: usize) -> E5Result {
    let (net, board, client_host) = standard_rig(0xE5);
    let stack = sockets::dynic::Stack::sock_init(&net, board);
    let mut sched = Scheduler::new();
    let config = RmcServerConfig::default();
    let server = spawn_rmc_server(&mut sched, &stack, &config);

    let results: Vec<_> = (0..clients)
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
                500 + i as u64,
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
        assert!(rounds < 3_000_000, "E5 run stalled");
    }
    for (i, r) in results.iter().enumerate() {
        assert!(!r.failed.load(Ordering::SeqCst), "client {i} failed");
    }
    for _ in 0..10_000 {
        sched.tick();
        if server.stats.served.load(Ordering::SeqCst) == clients as u64 {
            break;
        }
    }
    E5Result {
        served: server.stats.served.load(Ordering::SeqCst),
        max_active: server.stats.max_active.load(Ordering::SeqCst),
        handlers: config.handlers,
    }
}

/// Formats a ratio for the tables.
pub fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / b as f64
}
