//! The RMC2000 port of the issl service — the paper's Figure 3 server.
//!
//! Everything the port changed is reproduced here:
//!
//! * **No `fork`/`accept`**: the server is a fixed set of handler
//!   costatements, each owning one `tcp_listen` slot on the service port,
//!   plus one costatement that drives the TCP stack with `tcp_tick(NULL)`
//!   — "three processes to handle requests (allowing a maximum of three
//!   connections), and one to drive the TCP stack". Adding concurrency
//!   means adding costatements and **recompiling**. Each handler speaks
//!   issl through a [`DynicWire`], which yields to the tick costatement
//!   whenever its socket is not ready.
//! * **No RSA**: key exchange degenerates to a pre-shared master secret
//!   ([`crate::session::ServerKx::PreShared`]); the bignum package never
//!   crossed the porting gap.
//! * **AES-128/128 only**: other Rijndael geometries are rejected with an
//!   alert ("we only implemented 128-bit keys and blocks").
//! * **Static allocation**: all per-handler buffers come from one
//!   [`dynamicc::Xalloc`] arena at start-up; the arena's allocation count
//!   never moves once the server is serving (no `malloc`, no `free`).
//! * **No filesystem**: logging goes to a fixed [`CircularLog`]; the key
//!   hash that the host reads from a file is a compiled-in constant.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crypto::Prng;
use dynamicc::{Scheduler, Xalloc};
use sockets::dynic::Stack;

use crate::log::{CircularLog, Log};
use crate::session::{CipherSuite, ServerConfig, ServerKx, Session};
use crate::wire::DynicWire;

/// Fixed record buffer per handler, allocated once from the arena —
/// exactly one maximum-size record ([`crate::recmap::MAX_RECORD`]).
pub const HANDLER_BUFFER: usize = crate::recmap::MAX_RECORD;

/// Counters published by the running port.
#[derive(Debug, Default)]
pub struct RmcStats {
    /// Connections fully served.
    pub served: AtomicU64,
    /// Handlers currently inside a connection.
    pub active: AtomicU64,
    /// High-water mark of simultaneous connections — the paper's cap of
    /// three (experiment E5).
    pub max_active: AtomicU64,
    /// Hellos rejected for offering a non-AES-128 suite.
    pub rejected_suites: AtomicU64,
    /// Handshakes that failed for other reasons.
    pub failures: AtomicU64,
    /// Stop flag for orderly shutdown.
    pub stop: AtomicBool,
}

/// Configuration of the ported server.
#[derive(Debug, Clone)]
pub struct RmcServerConfig {
    /// Service port.
    pub port: u16,
    /// The pre-shared master secret (replaces RSA).
    pub psk: Vec<u8>,
    /// Number of handler costatements — 3 in the paper; changing it
    /// means "the program would have to be re-compiled", i.e. a new call
    /// to [`spawn_rmc_server`].
    pub handlers: usize,
    /// Circular-log capacity in lines.
    pub log_lines: usize,
    /// Extended-memory arena size for the static buffers.
    pub xmem_bytes: usize,
    /// PRNG seed base.
    pub seed: u64,
}

impl Default for RmcServerConfig {
    fn default() -> RmcServerConfig {
        RmcServerConfig {
            port: 4433,
            psk: b"rmc2000 pre-shared master secret".to_vec(),
            handlers: 3,
            log_lines: 32,
            xmem_bytes: 16 * 1024,
            seed: 0x2000,
        }
    }
}

/// Handle to the spawned port: stats, the circular log, and the arena
/// (exposed so tests can verify the allocation trace stays flat).
pub struct RmcServer {
    /// Shared counters.
    pub stats: Arc<RmcStats>,
    /// The bounded log.
    pub log: CircularLog,
    /// The static-allocation arena.
    pub xalloc: Arc<Mutex<Xalloc>>,
    /// Compiled-in key hash (hex), replacing the host's key-hash file.
    pub key_hash: String,
}

/// Spawns the Figure 3 server onto a scheduler: `config.handlers` handler
/// costatements plus the `tcp_tick(NULL)` driver costatement.
///
/// # Panics
///
/// Panics if the xmem arena cannot hold the handlers' static buffers.
pub fn spawn_rmc_server(
    sched: &mut Scheduler,
    stack: &Stack,
    config: &RmcServerConfig,
) -> RmcServer {
    let stats = Arc::new(RmcStats::default());
    let log = CircularLog::new(config.log_lines);
    let mut arena = Xalloc::new(config.xmem_bytes);

    // §5.2: everything allocated up front, nothing ever freed.
    let buffers: Vec<dynamicc::XPtr> = (0..config.handlers)
        .map(|_| arena.alloc(HANDLER_BUFFER).expect("xmem budget"))
        .collect();
    let xalloc = Arc::new(Mutex::new(arena));

    // The compiled-in key hash (the host reads this from a file).
    let digest = crypto::sha1(&config.psk);
    let key_hash: String = digest.iter().map(|b| format!("{b:02x}")).collect();

    let tls = ServerConfig {
        suites: vec![CipherSuite::AES128],
        kx: ServerKx::PreShared(config.psk.clone()),
    };

    for (idx, buffer) in buffers.into_iter().enumerate() {
        let stack = stack.clone();
        let stats = Arc::clone(&stats);
        let log = log.clone();
        let tls = tls.clone();
        let xalloc = Arc::clone(&xalloc);
        let port = config.port;
        let seed = config.seed ^ ((idx as u64 + 1) << 24);
        sched.spawn(&format!("tls-handler-{idx}"), move |co| {
            loop {
                if stats.stop.load(Ordering::SeqCst) {
                    return;
                }
                let sock = stack.tcp_socket();
                if stack.tcp_listen(sock, port).is_err() {
                    log.log(&format!("handler {idx}: listen failed"));
                    return;
                }
                // waitfor(sock_established(&socket)) — Figure 3's shape,
                // rebased on the readiness primitive: accept-ready on a
                // Dynamic C listen slot is exactly "the slot was handed
                // its connection and the handshake finished".
                co.waitfor(|| {
                    stack.sock_readiness(sock).accept_ready || stats.stop.load(Ordering::SeqCst)
                });
                if stats.stop.load(Ordering::SeqCst) {
                    stack.sock_close(sock);
                    return;
                }

                let now_active = stats.active.fetch_add(1, Ordering::SeqCst) + 1;
                stats.max_active.fetch_max(now_active, Ordering::SeqCst);

                let wire = DynicWire {
                    stack: stack.clone(),
                    sock,
                    co: co.clone(),
                };
                match Session::server_handshake(wire, &tls, Prng::new(seed)) {
                    Ok(mut session) => {
                        // Echo service over the secure channel. Incoming
                        // plaintext is staged through this handler's
                        // static arena buffer; the arena lock is never
                        // held across a yield point (reads and writes
                        // block cooperatively).
                        let mut total = 0u64;
                        let mut record = [0u8; HANDLER_BUFFER];
                        loop {
                            let n = match session.secure_read(&mut record) {
                                Ok(0) => break,
                                Ok(n) => n,
                                Err(_) => {
                                    stats.failures.fetch_add(1, Ordering::SeqCst);
                                    break;
                                }
                            };
                            let chunk = {
                                let mut arena = xalloc.lock().expect("arena lock");
                                arena.bytes_mut(buffer)[..n].copy_from_slice(&record[..n]);
                                arena.bytes(buffer)[..n].to_vec()
                            };
                            if session.secure_write(&chunk).is_err() {
                                stats.failures.fetch_add(1, Ordering::SeqCst);
                                break;
                            }
                            total += n as u64;
                        }
                        let _ = session.close();
                        stats.served.fetch_add(1, Ordering::SeqCst);
                        log.log(&format!("handler {idx}: served {total} bytes"));
                    }
                    Err(crate::session::IsslError::UnsupportedSuite) => {
                        stats.rejected_suites.fetch_add(1, Ordering::SeqCst);
                        log.log(&format!("handler {idx}: rejected non-AES-128 hello"));
                    }
                    Err(e) => {
                        stats.failures.fetch_add(1, Ordering::SeqCst);
                        log.log(&format!("handler {idx}: handshake failed: {e}"));
                    }
                }
                stack.sock_close(sock);
                stats.active.fetch_sub(1, Ordering::SeqCst);
            }
        });
    }

    // The fourth process: drive the TCP stack.
    {
        let stack = stack.clone();
        let stats = Arc::clone(&stats);
        sched.spawn("tcp-tick", move |co| {
            while !stats.stop.load(Ordering::SeqCst) {
                stack.tcp_tick(None);
                co.yield_now();
            }
        });
    }

    RmcServer {
        stats,
        log,
        xalloc,
        key_hash,
    }
}
