//! The Unix host profile: the "simple Unix service that used the issl
//! library to establish a secure redirector" (§2), which the authors
//! built first and later ported to the board.
//!
//! Structure mirrors the original: a listener hands each accepted
//! connection to a concurrent handler (the paper's `fork`-per-request
//! loop in §5.3 — modelled here as a pool of cooperative workers, since
//! the simulation has no processes to fork), each handler speaks issl
//! over BSD sockets, redirects plaintext to a backend service, and logs
//! to an append-only file on the host filesystem.
//!
//! Every peer here talks through [`BsdWire`] on a [`UnixProcess`]
//! descriptor. A handler adopts its accepted connection
//! ([`UnixProcess::adopt`]), as a forked child inherits it. The
//! redirector and the plain echo server share one worker pool, and the
//! plain and secure clients one echo check, which runs over a descriptor
//! or a [`Session`] alike.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crypto::Prng;
use dynamicc::{Co, Scheduler};
use netsim::{Endpoint, HostId, Ipv4, SocketId};
use sockets::bsd::{SockAddrIn, UnixProcess, AF_INET, SOCK_STREAM};
use sockets::Net;

use crate::log::{FileLog, Log};
use crate::session::{ClientConfig, IsslError, ServerConfig, Session};
use crate::wire::{BsdWire, Wire};

/// Counters published by a running redirector.
#[derive(Debug, Default)]
pub struct RedirectorStats {
    /// Connections fully served.
    pub served: AtomicU64,
    /// Application bytes redirected (client→backend direction).
    pub bytes_forward: AtomicU64,
    /// Handshakes that failed.
    pub handshake_failures: AtomicU64,
    /// Stop flag: set to end the worker pool after their current request.
    pub stop: AtomicBool,
}

/// Virtual CPU time the server charges for cryptography, in the spirit of
/// Goldberg et al.'s SSL-server measurements (§2 cites them observing SSL
/// "reducing throughput by an order of magnitude"): the public-key
/// operation dominates connection setup, the symmetric cipher taxes bulk
/// bytes. Costs are charged to the simulation clock while the handler
/// works, so a busy server really does serve fewer requests per virtual
/// second.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ComputeCost {
    /// Microseconds for the server side of one handshake (RSA decrypt).
    pub handshake_us: u64,
    /// Microseconds per kilobyte of bulk data (cipher + MAC).
    pub per_kilobyte_us: u64,
}

impl ComputeCost {
    /// No modelled compute cost (wire-limited).
    pub fn free() -> ComputeCost {
        ComputeCost::default()
    }

    /// A server of the paper's era: ~20 ms per RSA handshake, symmetric
    /// crypto at roughly 12 MB/s.
    pub fn era_2002() -> ComputeCost {
        ComputeCost {
            handshake_us: 20_000,
            per_kilobyte_us: 80,
        }
    }
}

/// Configuration of a secure redirector.
#[derive(Debug, Clone)]
pub struct RedirectorConfig {
    /// Port to listen on.
    pub port: u16,
    /// Backend to forward plaintext to; `None` echoes locally.
    pub backend: Option<Endpoint>,
    /// Server-side session policy.
    pub tls: ServerConfig,
    /// Worker-pool size (the `fork` concurrency).
    pub workers: usize,
    /// PRNG seed base.
    pub seed: u64,
    /// Virtual crypto cost charged while serving.
    pub compute: ComputeCost,
}

/// Spawns the redirector's worker pool onto a costatement scheduler.
/// Returns the shared stats block.
///
/// # Panics
///
/// Panics if the listen port is already bound on `host`.
pub fn spawn_redirector(
    sched: &mut Scheduler,
    net: &Net,
    host: HostId,
    config: &RedirectorConfig,
    log: FileLog,
) -> Arc<RedirectorStats> {
    let (port, workers) = (config.port, config.workers);
    let config = config.clone();
    let handle = net.clone();
    let serve = move |worker: usize, co: &Co, conn, stats: &RedirectorStats| {
        let seed = config.seed ^ (0xC0FF_EE00 + worker as u64);
        match serve_connection(&handle, host, co, conn, &config, seed, stats) {
            Ok(bytes) => {
                stats.served.fetch_add(1, Ordering::SeqCst);
                log.log(&format!("served connection ({bytes} bytes redirected)"));
            }
            Err(e) => {
                stats.handshake_failures.fetch_add(1, Ordering::SeqCst);
                log.log(&format!("connection failed: {e}"));
            }
        }
    };
    spawn_workers(sched, net, host, port, workers, "redirector", serve)
}

/// The `fork`-per-request loop both host servers share: one listener on
/// `port`, and `workers` costatements that each park until it has a
/// pending connection, accept it and hand it to `serve` (with the
/// worker's index), until the returned block's `stop` is raised.
fn spawn_workers<F>(
    sched: &mut Scheduler,
    net: &Net,
    host: HostId,
    port: u16,
    workers: usize,
    name: &str,
    serve: F,
) -> Arc<RedirectorStats>
where
    F: Fn(usize, &Co, SocketId, &RedirectorStats) + Clone + Send + 'static,
{
    let stats = Arc::new(RedirectorStats::default());
    let listener = net
        .with(|w| w.tcp_listen(host, port, workers.max(1) * 2))
        .expect("listen port free");
    for worker in 0..workers {
        let net = net.clone();
        let stats = Arc::clone(&stats);
        let serve = serve.clone();
        sched.spawn(&format!("{name}-{worker}"), move |co| loop {
            if stats.stop.load(Ordering::SeqCst) {
                return;
            }
            if net.with(|w| w.tcp_pending(listener)) > 0 {
                if let Some(conn) = net.with(|w| w.tcp_accept(listener)) {
                    serve(worker, &co, conn, &stats);
                    continue;
                }
            }
            // accept() without a timeout: park until the listener has a
            // pending connection or stop is raised.
            let net = net.clone();
            let stats = Arc::clone(&stats);
            co.wait_until(move || {
                stats.stop.load(Ordering::SeqCst) || net.with(|w| w.tcp_pending(listener)) > 0
            });
        });
    }
    stats
}

/// Serves one accepted connection the way a `fork`ed child would: the
/// child inherits the descriptor and speaks issl over it, and opens its
/// plaintext leg to the backend from a process of its own.
#[allow(clippy::too_many_arguments)] // internal helper; the grouping *is* the connection context
fn serve_connection(
    net: &Net,
    host: HostId,
    co: &Co,
    conn: SocketId,
    config: &RedirectorConfig,
    seed: u64,
    stats: &RedirectorStats,
) -> Result<u64, IsslError> {
    let mut child = UnixProcess::in_costate(net, host, co.clone());
    let fd = child.adopt(conn);
    let wire = BsdWire {
        process: &mut child,
        fd,
    };
    let mut session = Session::server_handshake(wire, &config.tls, Prng::new(seed))?;
    if config.compute.handshake_us > 0 {
        net.pump(config.compute.handshake_us);
    }

    // Optional plaintext leg to the backend.
    let mut backend = None;
    if let Some(be) = config.backend {
        let mut proc = UnixProcess::in_costate(net, host, co.clone());
        let fd = proc.socket(AF_INET, SOCK_STREAM, 0).expect("socket");
        proc.connect(fd, &SockAddrIn::new(be.ip, be.port))
            .map_err(|_| IsslError::Handshake("backend unreachable"))?;
        backend = Some((proc, fd));
    }

    let mut total = 0u64;
    let mut buf = vec![0u8; 2048];
    loop {
        let n = session.secure_read(&mut buf)?;
        if n == 0 {
            break;
        }
        total += n as u64;
        stats.bytes_forward.fetch_add(n as u64, Ordering::SeqCst);
        if config.compute.per_kilobyte_us > 0 {
            // decrypt + re-encrypt of n bytes
            net.pump(2 * (n as u64 * config.compute.per_kilobyte_us) / 1024);
        }
        match &mut backend {
            Some((proc, fd)) => {
                // redirect: plaintext to the backend, its reply back over
                // the secure channel
                proc.send_all(*fd, &buf[..n])
                    .map_err(|_| IsslError::Handshake("backend send"))?;
                let mut reply = vec![0u8; n];
                let mut got = 0;
                while got < n {
                    let m = proc
                        .recv(*fd, &mut reply[got..])
                        .map_err(|_| IsslError::Handshake("backend recv"))?;
                    if m == 0 {
                        break;
                    }
                    got += m;
                }
                session.secure_write(&reply[..got])?;
            }
            None => session.secure_write(&buf[..n])?, // echo
        }
    }
    let _ = session.close();
    if let Some((mut proc, fd)) = backend {
        let _ = proc.close(fd);
    }
    Ok(total)
}

/// Spawns a plaintext echo server (the backend the redirector fronts, and
/// the baseline for the SSL-overhead experiment).
pub fn spawn_plain_echo(
    sched: &mut Scheduler,
    net: &Net,
    host: HostId,
    port: u16,
    workers: usize,
) -> Arc<RedirectorStats> {
    let handle = net.clone();
    let serve = move |_, co: &Co, conn, stats: &RedirectorStats| {
        let mut child = UnixProcess::in_costate(&handle, host, co.clone());
        let fd = child.adopt(conn);
        let mut buf = [0u8; 2048];
        while let Ok(n @ 1..) = child.recv(fd, &mut buf) {
            stats.bytes_forward.fetch_add(n as u64, Ordering::SeqCst);
            if child.send_all(fd, &buf[..n]).is_err() {
                break;
            }
        }
        let _ = child.close(fd);
        stats.served.fetch_add(1, Ordering::SeqCst);
    };
    spawn_workers(sched, net, host, port, workers, "plain-echo", serve)
}

/// Spawns a driver costatement that pumps the simulated network each
/// round (the event-loop "process" every cooperative rig needs).
pub fn spawn_driver(sched: &mut Scheduler, net: &Net, quantum_us: u64) -> Arc<AtomicBool> {
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let net = net.clone();
    // Inline: the driver never blocks mid-slice, so it runs on the
    // scheduler thread and skips two context switches per round.
    sched.spawn_inline("net-driver", move || {
        if flag.load(Ordering::SeqCst) {
            return true;
        }
        net.pump(quantum_us);
        false
    });
    stop
}

/// Result block filled in by [`spawn_secure_client`] and
/// [`spawn_plain_client`].
#[derive(Debug, Default)]
pub struct ClientResult {
    /// Bytes echoed back and verified.
    pub bytes_verified: AtomicU64,
    /// Completed successfully.
    pub done: AtomicBool,
    /// The exchange failed.
    pub failed: AtomicBool,
}

/// Spawns a client costatement that connects to `server`, performs the
/// issl handshake, streams `payload` through in `chunk`-byte secure
/// writes, and verifies the echoed/redirected reply.
#[allow(clippy::too_many_arguments)] // a workload spec, deliberately flat
pub fn spawn_secure_client(
    sched: &mut Scheduler,
    net: &Net,
    host: HostId,
    server: Endpoint,
    tls: ClientConfig,
    payload: Vec<u8>,
    chunk: usize,
    seed: u64,
) -> Arc<ClientResult> {
    let spec = EchoSpec {
        server,
        payload,
        chunk,
    };
    spawn_echo_client(sched, net, host, "secure-client", spec, Some((tls, seed)))
}

/// Spawns a *plaintext* client with the same traffic pattern, for the
/// SSL-overhead baseline.
pub fn spawn_plain_client(
    sched: &mut Scheduler,
    net: &Net,
    host: HostId,
    server: Endpoint,
    payload: Vec<u8>,
    chunk: usize,
) -> Arc<ClientResult> {
    let spec = EchoSpec {
        server,
        payload,
        chunk,
    };
    spawn_echo_client(sched, net, host, "plain-client", spec, None)
}

/// What an echo client sends, and where.
struct EchoSpec {
    server: Endpoint,
    payload: Vec<u8>,
    chunk: usize,
}

/// The one host echo client: plaintext when `tls` is `None`, otherwise
/// issl with that config and PRNG seed.
fn spawn_echo_client(
    sched: &mut Scheduler,
    net: &Net,
    host: HostId,
    name: &str,
    spec: EchoSpec,
    tls: Option<(ClientConfig, u64)>,
) -> Arc<ClientResult> {
    let result = Arc::new(ClientResult::default());
    let out = Arc::clone(&result);
    let net = net.clone();
    sched.spawn(name, move |co| {
        let mut proc = UnixProcess::in_costate(&net, host, co);
        let flag = match echo_client(&mut proc, &spec, tls, &out) {
            Some(()) => &out.done,
            None => &out.failed,
        };
        flag.store(true, Ordering::SeqCst);
    });
    result
}

/// Connects, runs the handshake if `tls` asks for one, checks the echo
/// over the descriptor or the session alike, and closes. `None` at the
/// first failure.
fn echo_client(
    proc: &mut UnixProcess,
    spec: &EchoSpec,
    tls: Option<(ClientConfig, u64)>,
    out: &ClientResult,
) -> Option<()> {
    let fd = proc.socket(AF_INET, SOCK_STREAM, 0).expect("socket");
    let addr = SockAddrIn::new(spec.server.ip, spec.server.port);
    proc.connect(fd, &addr).ok()?;
    let mut wire = BsdWire { process: proc, fd };
    match tls {
        None => {
            echo_check(&mut wire, spec, out)?;
            let _ = wire.process.close(fd);
        }
        Some((tls, seed)) => {
            let mut session = Session::client_handshake(wire, &tls, Prng::new(seed)).ok()?;
            echo_check(&mut session, spec, out)?;
            let _ = session.close();
        }
    }
    Some(())
}

/// Streams the payload through `stream` one chunk at a time, reads each
/// echo back in full, compares it, and counts the verified bytes into
/// `out`.
fn echo_check(stream: &mut impl Wire, spec: &EchoSpec, out: &ClientResult) -> Option<()> {
    let mut verified = 0u64;
    for part in spec.payload.chunks(spec.chunk.max(1)) {
        stream.write_all(part).ok()?;
        let mut echoed = vec![0u8; part.len()];
        stream.read_exact(&mut echoed).ok()?;
        if echoed != part {
            return None;
        }
        verified += part.len() as u64;
        out.bytes_verified.store(verified, Ordering::SeqCst);
    }
    Some(())
}

/// Writes the SHA-1 of the server's public key to the conventional path —
/// the "hash value in a file" whose absence on the board forced a logic
/// change (§5).
pub fn publish_key_hash(fs: &crate::fs::Filesystem, kx: &crate::session::ServerKx) -> String {
    let digest = match kx {
        crate::session::ServerKx::Rsa(kp) => crypto::sha1(&kp.public().n_bytes()),
        crate::session::ServerKx::PreShared(psk) => crypto::sha1(psk),
    };
    let hex: String = digest.iter().map(|b| format!("{b:02x}")).collect();
    fs.write("/etc/issl/key.hash", hex.as_bytes());
    hex
}

/// Convenience: build the standard two-host rig (server + client LAN).
pub fn standard_rig(seed: u64) -> (Net, HostId, HostId) {
    let net = Net::new(seed);
    let server = net.add_host(Ipv4::new(10, 0, 0, 1));
    let client = net.add_host(Ipv4::new(10, 0, 0, 2));
    net.link(server, client, netsim::LinkParams::lan_100m());
    (net, server, client)
}
