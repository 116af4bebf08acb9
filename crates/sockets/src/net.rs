//! A shared, cloneable handle to a [`netsim::World`], used by both socket
//! API flavours and by cooperative processes running in a
//! [`dynamicc::Scheduler`].

use std::sync::{Arc, Mutex};

use netsim::{HostId, Ipv4, LinkParams, World};

/// A cloneable handle to one simulated network.
///
/// Every clone refers to the same world; since the costatement scheduler
/// runs one body at a time, lock contention is nil and event ordering is
/// deterministic.
#[derive(Clone)]
pub struct Net {
    world: Arc<Mutex<World>>,
}

impl Net {
    /// Creates a network with a deterministic seed.
    pub fn new(seed: u64) -> Net {
        Net {
            world: Arc::new(Mutex::new(World::new(seed))),
        }
    }

    /// Adds a host.
    pub fn add_host(&self, ip: Ipv4) -> HostId {
        self.world.lock().expect("world lock").add_host(ip)
    }

    /// Connects two hosts.
    pub fn link(&self, a: HostId, b: HostId, params: LinkParams) {
        self.world.lock().expect("world lock").link(a, b, params);
    }

    /// Runs `f` with exclusive access to the world.
    pub fn with<R>(&self, f: impl FnOnce(&mut World) -> R) -> R {
        f(&mut self.world.lock().expect("world lock"))
    }

    /// Current virtual time in microseconds.
    pub fn now(&self) -> u64 {
        self.world.lock().expect("world lock").now()
    }

    /// Advances virtual time by `us` microseconds, processing every event
    /// that falls due. This is what a driver costatement calls each slice.
    pub fn pump(&self, us: u64) {
        self.world.lock().expect("world lock").run_for(us);
    }

    /// Processes a single event. Returns false when the queue is idle.
    pub fn step(&self) -> bool {
        self.world.lock().expect("world lock").step()
    }

    /// The world's telemetry registry (cheap clone of a shared handle);
    /// `net.*` counters and anything layered on this world record here.
    pub fn telemetry(&self) -> telemetry::Registry {
        self.world.lock().expect("world lock").telemetry().clone()
    }
}

impl std::fmt::Debug for Net {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let w = self.world.lock().expect("world lock");
        write!(f, "Net({w:?})")
    }
}

/// How a pseudo-blocking call waits for the network.
///
/// * [`Blocking::Pump`] — the caller owns the event loop: step the world
///   until the condition holds (single-threaded client code, tests).
/// * [`Blocking::Yield`] — the caller is a costatement: yield each round
///   and let a driver costatement pump the world (the structure of the
///   paper's Figure 3 main loop).
#[derive(Clone)]
pub enum Blocking {
    /// Pump the world from this call.
    Pump,
    /// Yield to the costatement scheduler between checks.
    Yield(dynamicc::Co),
}

impl Blocking {
    /// Waits until `pred` returns true. Returns false if the wait cannot
    /// make progress (event queue drained in pump mode) or `max_rounds`
    /// passes without the predicate holding.
    pub fn wait_until(
        &self,
        net: &Net,
        mut pred: impl FnMut(&mut World) -> bool,
        max_rounds: usize,
    ) -> bool {
        for _ in 0..max_rounds {
            if net.with(&mut pred) {
                return true;
            }
            match self {
                Blocking::Pump => {
                    if !net.step() {
                        return net.with(&mut pred);
                    }
                }
                Blocking::Yield(co) => co.yield_now(),
            }
        }
        net.with(&mut pred)
    }
}

impl std::fmt::Debug for Blocking {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Blocking::Pump => write!(f, "Blocking::Pump"),
            Blocking::Yield(_) => write!(f, "Blocking::Yield"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Endpoint;

    #[test]
    fn pump_mode_advances_time() {
        let net = Net::new(3);
        let a = net.add_host(Ipv4::new(10, 0, 0, 1));
        let b = net.add_host(Ipv4::new(10, 0, 0, 2));
        net.link(a, b, LinkParams::ethernet_10base_t());
        let listener = net.with(|w| w.tcp_listen(a, 80, 4)).unwrap();
        let c = net.with(|w| w.tcp_connect(b, Endpoint::new(Ipv4::new(10, 0, 0, 1), 80)));
        let ok = Blocking::Pump.wait_until(&net, |w| w.tcp_pending(listener) > 0, 100_000);
        assert!(ok);
        assert!(net.with(|w| w.tcp_established(c)));
        assert!(net.now() > 0);
    }
}
