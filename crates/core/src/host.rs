//! The Unix host profile: the "simple Unix service that used the issl
//! library to establish a secure redirector" (§2), which the authors
//! built first and later ported to the board.
//!
//! Structure mirrors the original: a listener hands each accepted
//! connection to a concurrent handler (the paper's `fork`-per-request
//! loop in §5.3 — modelled here as a pool of cooperative processes, since
//! the simulation has no processes to fork), each handler speaks issl
//! over BSD sockets, redirects plaintext to a backend service, and logs
//! to an append-only file on the host filesystem.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crypto::Prng;
use dynamicc::Scheduler;
use netsim::{Endpoint, HostId, Ipv4};
use sockets::bsd::{SockAddrIn, UnixProcess, AF_INET, SOCK_STREAM};
use sockets::Net;

use crate::log::{FileLog, Log};
use crate::session::{ClientConfig, ServerConfig, Session};
use crate::wire::BsdWire;

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
    let stats = Arc::new(RedirectorStats::default());
    // One shared listener; workers all accept from it.
    let listener = net
        .with(|w| w.tcp_listen(host, config.port, config.workers.max(1) * 2))
        .expect("listen port free");

    for worker in 0..config.workers {
        let net = net.clone();
        let stats = Arc::clone(&stats);
        let config = config.clone();
        let log = log.clone();
        sched.spawn(&format!("redirector-{worker}"), move |co| {
            let mut proc = UnixProcess::in_costate(&net, host, co.clone());
            loop {
                if stats.stop.load(Ordering::SeqCst) {
                    return;
                }
                // accept() without a timeout: park until the listener has
                // a pending connection (or stop is raised), then accept.
                let conn = loop {
                    if stats.stop.load(Ordering::SeqCst) {
                        return;
                    }
                    if net.with(|w| w.tcp_pending(listener)) > 0 {
                        if let Some(sid) = net.with(|w| w.tcp_accept(listener)) {
                            break sid;
                        }
                    }
                    let net = net.clone();
                    let stats = Arc::clone(&stats);
                    co.wait_until(move || {
                        stats.stop.load(Ordering::SeqCst)
                            || net.with(|w| w.tcp_pending(listener)) > 0
                    });
                };

                let seed = config.seed ^ (0xC0FF_EE00 + worker as u64);
                let outcome = serve_connection(&mut proc, &net, &co, conn, &config, seed, &stats);
                match outcome {
                    Ok(bytes) => {
                        stats.served.fetch_add(1, Ordering::SeqCst);
                        log.log(&format!("served connection ({bytes} bytes redirected)"));
                    }
                    Err(e) => {
                        stats.handshake_failures.fetch_add(1, Ordering::SeqCst);
                        log.log(&format!("connection failed: {e}"));
                    }
                }
            }
        });
    }
    stats
}

#[allow(clippy::too_many_arguments)] // internal helper; the grouping *is* the connection context
fn serve_connection(
    proc: &mut UnixProcess,
    net: &Net,
    co: &dynamicc::Co,
    conn: netsim::SocketId,
    config: &RedirectorConfig,
    seed: u64,
    stats: &RedirectorStats,
) -> Result<u64, crate::session::IsslError> {
    let wire = RawSocketWire {
        net: net.clone(),
        sid: conn,
        co: co.clone(),
    };
    let mut session = Session::server_handshake(wire, &config.tls, Prng::new(seed))?;
    if config.compute.handshake_us > 0 {
        net.pump(config.compute.handshake_us);
    }

    // Optional plaintext leg to the backend.
    let mut backend_fd = None;
    if let Some(be) = config.backend {
        let fd = proc.socket(AF_INET, SOCK_STREAM, 0).expect("socket");
        proc.connect(fd, &SockAddrIn::new(be.ip, be.port))
            .map_err(|_| crate::session::IsslError::Handshake("backend unreachable"))?;
        backend_fd = Some(fd);
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
        match backend_fd {
            Some(fd) => {
                // redirect: plaintext to the backend, its reply back over
                // the secure channel
                proc.send_all(fd, &buf[..n])
                    .map_err(|_| crate::session::IsslError::Handshake("backend send"))?;
                let mut reply = vec![0u8; n];
                let mut got = 0;
                while got < n {
                    let m = proc
                        .recv(fd, &mut reply[got..])
                        .map_err(|_| crate::session::IsslError::Handshake("backend recv"))?;
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
    if let Some(fd) = backend_fd {
        let _ = proc.close(fd);
    }
    Ok(total)
}

/// A raw netsim TCP socket used directly as a [`crate::wire::Wire`]
/// inside a costatement: blocked operations yield to the scheduler and a
/// driver costatement advances the wire.
pub struct RawSocketWire {
    /// Network handle.
    pub net: Net,
    /// Connected socket.
    pub sid: netsim::SocketId,
    /// Costatement handle used to yield while blocked.
    pub co: dynamicc::Co,
}

impl crate::wire::Wire for RawSocketWire {
    fn write_all(&mut self, data: &[u8]) -> Result<(), crate::wire::WireError> {
        let mut off = 0;
        let mut idle = 0u32;
        while off < data.len() {
            match self.net.with(|w| w.tcp_send(self.sid, &data[off..])) {
                Ok(0) => {
                    self.co.yield_now();
                    idle += 1;
                    if idle > 10_000_000 {
                        return Err(crate::wire::WireError::Timeout);
                    }
                }
                Ok(n) => {
                    off += n;
                    idle = 0;
                }
                Err(_) => return Err(crate::wire::WireError::ConnectionLost),
            }
        }
        Ok(())
    }

    fn read(&mut self, buf: &mut [u8]) -> Result<usize, crate::wire::WireError> {
        let mut idle = 0u32;
        loop {
            match self.net.with(|w| w.tcp_recv(self.sid, buf)) {
                netsim::Recv::Data(n) => return Ok(n),
                netsim::Recv::Closed => return Ok(0),
                netsim::Recv::Reset => return Err(crate::wire::WireError::ConnectionLost),
                netsim::Recv::WouldBlock => {
                    self.co.yield_now();
                    idle += 1;
                    if idle > 10_000_000 {
                        return Err(crate::wire::WireError::Timeout);
                    }
                }
            }
        }
    }
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
    let stats = Arc::new(RedirectorStats::default());
    let listener = net
        .with(|w| w.tcp_listen(host, port, workers.max(1) * 2))
        .expect("listen port free");
    for worker in 0..workers {
        let net = net.clone();
        let stats = Arc::clone(&stats);
        sched.spawn(&format!("plain-echo-{worker}"), move |co| loop {
            if stats.stop.load(Ordering::SeqCst) {
                return;
            }
            let conn = loop {
                if stats.stop.load(Ordering::SeqCst) {
                    return;
                }
                if net.with(|w| w.tcp_pending(listener)) > 0 {
                    if let Some(sid) = net.with(|w| w.tcp_accept(listener)) {
                        break sid;
                    }
                }
                let net = net.clone();
                let stats = Arc::clone(&stats);
                co.wait_until(move || {
                    stats.stop.load(Ordering::SeqCst)
                        || net.with(|w| w.tcp_pending(listener)) > 0
                });
            };
            let mut buf = [0u8; 2048];
            loop {
                match net.with(|w| w.tcp_recv(conn, &mut buf)) {
                    netsim::Recv::Data(n) => {
                        stats.bytes_forward.fetch_add(n as u64, Ordering::SeqCst);
                        let mut off = 0;
                        while off < n {
                            match net.with(|w| w.tcp_send(conn, &buf[off..n])) {
                                Ok(m) => off += m,
                                Err(_) => break,
                            }
                            if off < n {
                                co.yield_now();
                            }
                        }
                    }
                    netsim::Recv::WouldBlock => co.yield_now(),
                    netsim::Recv::Closed | netsim::Recv::Reset => break,
                }
            }
            let _ = net.with(|w| w.tcp_close(conn));
            stats.served.fetch_add(1, Ordering::SeqCst);
        });
    }
    stats
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

/// Result block filled in by [`spawn_secure_client`].
#[derive(Debug, Default)]
pub struct ClientResult {
    /// Bytes echoed back and verified.
    pub bytes_verified: AtomicU64,
    /// Completed successfully.
    pub done: AtomicBool,
    /// Error string if the exchange failed.
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
    let result = Arc::new(ClientResult::default());
    let out = Arc::clone(&result);
    let net = net.clone();
    sched.spawn("secure-client", move |co| {
        let mut proc = UnixProcess::in_costate(&net, host, co.clone());
        let fd = proc.socket(AF_INET, SOCK_STREAM, 0).expect("socket");
        if proc
            .connect(fd, &SockAddrIn::new(server.ip, server.port))
            .is_err()
        {
            out.failed.store(true, Ordering::SeqCst);
            return;
        }
        let wire = BsdWire {
            process: &mut proc,
            fd,
        };
        let Ok(mut session) = Session::client_handshake(wire, &tls, Prng::new(seed)) else {
            out.failed.store(true, Ordering::SeqCst);
            return;
        };
        let mut verified = 0u64;
        for part in payload.chunks(chunk.max(1)) {
            if session.secure_write(part).is_err() {
                out.failed.store(true, Ordering::SeqCst);
                return;
            }
            let mut echoed = vec![0u8; part.len()];
            let mut got = 0;
            while got < part.len() {
                match session.secure_read(&mut echoed[got..]) {
                    Ok(0) => {
                        out.failed.store(true, Ordering::SeqCst);
                        return;
                    }
                    Ok(n) => got += n,
                    Err(_) => {
                        out.failed.store(true, Ordering::SeqCst);
                        return;
                    }
                }
            }
            if echoed != part {
                out.failed.store(true, Ordering::SeqCst);
                return;
            }
            verified += part.len() as u64;
            out.bytes_verified.store(verified, Ordering::SeqCst);
        }
        let _ = session.close();
        out.done.store(true, Ordering::SeqCst);
    });
    result
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
    let result = Arc::new(ClientResult::default());
    let out = Arc::clone(&result);
    let net = net.clone();
    sched.spawn("plain-client", move |co| {
        let mut proc = UnixProcess::in_costate(&net, host, co.clone());
        let fd = proc.socket(AF_INET, SOCK_STREAM, 0).expect("socket");
        if proc
            .connect(fd, &SockAddrIn::new(server.ip, server.port))
            .is_err()
        {
            out.failed.store(true, Ordering::SeqCst);
            return;
        }
        let mut verified = 0u64;
        for part in payload.chunks(chunk.max(1)) {
            if proc.send_all(fd, part).is_err() {
                out.failed.store(true, Ordering::SeqCst);
                return;
            }
            let mut echoed = vec![0u8; part.len()];
            let mut got = 0;
            while got < part.len() {
                match proc.recv(fd, &mut echoed[got..]) {
                    Ok(0) => {
                        out.failed.store(true, Ordering::SeqCst);
                        return;
                    }
                    Ok(n) => got += n,
                    Err(_) => {
                        out.failed.store(true, Ordering::SeqCst);
                        return;
                    }
                }
            }
            if echoed != part {
                out.failed.store(true, Ordering::SeqCst);
                return;
            }
            verified += part.len() as u64;
            out.bytes_verified.store(verified, Ordering::SeqCst);
        }
        let _ = proc.close(fd);
        out.done.store(true, Ordering::SeqCst);
    });
    result
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
