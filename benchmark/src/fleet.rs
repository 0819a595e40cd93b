//! The in-process fleet every workload runs against: two single-device
//! nodes behind one router, on fixed loopback ports.
//!
//! The ports are fixed because the router's rendezvous hashing weighs each
//! node by its address string: OS-assigned ports would split the requests
//! between the nodes differently on every run.

use crate::loadgen::{self, ClosedLoop};
use crate::workloads::Workload;
use cdd_bench::workload::WorkloadEntry;
use cdd_net::node::{NodeConfig, NodeHandle, NodeReport};
use cdd_net::router::{RouterConfig, RouterHandle};
use cdd_net::{serve_node, serve_router};

/// Nodes in the fleet (one device each).
const NODES: u16 = 2;

/// Default first port: the router binds it, node `i` binds `base + 1 + i`.
/// It lies below Linux's default ephemeral range (32768–60999), so no
/// outgoing connection can hold one of the fleet's ports.
pub const DEFAULT_PORT_BASE: u16 = 29_610;

/// Port offset of the peel's second, nodes-only fleet (its nodes bind
/// `base + PEEL_PORT_OFFSET + 1 + i`).
pub(crate) const PEEL_PORT_OFFSET: u16 = NODES;

/// Ports a run binds from its port base.
pub const PORTS: u16 = PEEL_PORT_OFFSET + NODES + 1;

/// The addresses the nodes of a fleet on `port_base` bind, in
/// configuration order.
pub(crate) fn node_addrs(port_base: u16) -> Vec<String> {
    (0..NODES)
        .map(|i| format!("127.0.0.1:{}", port_base + 1 + i))
        .collect()
}

/// A running fleet.
pub(crate) struct Fleet {
    /// The router's address (`None` for a nodes-only fleet).
    pub(crate) router_addr: Option<String>,
    /// The nodes' addresses, in configuration order.
    pub(crate) node_addrs: Vec<String>,
    router: Option<RouterHandle>,
    nodes: Vec<NodeHandle>,
}

fn bind_error(addr: &str, e: &std::io::Error) -> String {
    format!(
        "cannot bind {addr}: {e}. The benchmark needs fixed loopback ports (routing depends \
         on the node addresses); free the port or pass another --port-base"
    )
}

impl Fleet {
    /// Boot the nodes on `port_base + 1..` and, when `routed`, the router on
    /// `port_base`, then wait until every front door answers a ping.
    fn start(w: &Workload, port_base: u16, routed: bool) -> Result<Fleet, String> {
        let mut fleet = Fleet {
            router_addr: None,
            node_addrs: Vec::new(),
            router: None,
            nodes: Vec::new(),
        };
        for (i, addr) in node_addrs(port_base).into_iter().enumerate() {
            let cfg = NodeConfig {
                addr: addr.clone(),
                service: w.service_config(),
                label: format!("node-{i}"),
                ..NodeConfig::default()
            };
            match serve_node(cfg) {
                Ok(h) => {
                    fleet.nodes.push(h);
                    fleet.node_addrs.push(addr);
                }
                Err(e) => {
                    fleet.shutdown();
                    return Err(bind_error(&addr, &e));
                }
            }
        }
        if routed {
            let addr = format!("127.0.0.1:{port_base}");
            let cfg = RouterConfig {
                addr: addr.clone(),
                upstreams: fleet.node_addrs.clone(),
                ..RouterConfig::default()
            };
            match serve_router(cfg) {
                Ok(h) => {
                    fleet.router = Some(h);
                    fleet.router_addr = Some(addr);
                }
                Err(e) => {
                    fleet.shutdown();
                    return Err(bind_error(&addr, &e));
                }
            }
        }
        let doors: Vec<String> = match &fleet.router_addr {
            Some(r) => vec![r.clone()],
            None => fleet.node_addrs.clone(),
        };
        for (nonce, door) in (1u64..).zip(&doors) {
            let answer = match cdd_net::client::ping(door, nonce) {
                Ok(true) => continue,
                Ok(false) => format!("{door} answered the ping with the wrong nonce"),
                Err(e) => format!("ping {door}: {e}"),
            };
            fleet.shutdown();
            return Err(answer);
        }
        Ok(fleet)
    }

    /// [`Fleet::start`], then answer every warm-up request through each
    /// front door: a fleet ready to measure. Any failure fails the set-up.
    pub(crate) fn ready(
        w: &Workload,
        port_base: u16,
        routed: bool,
        warmup: &[WorkloadEntry],
    ) -> Result<Fleet, String> {
        let fleet = Fleet::start(w, port_base, routed)?;
        match fleet.warm_up(warmup) {
            Ok(()) => Ok(fleet),
            Err(e) => {
                fleet.shutdown();
                Err(e)
            }
        }
    }

    fn warm_up(&self, entries: &[WorkloadEntry]) -> Result<(), String> {
        let doors = match &self.router_addr {
            Some(r) => std::slice::from_ref(r),
            None => &self.node_addrs[..],
        };
        let cfg = ClosedLoop {
            connections: 2,
            window: 8,
            traced: false,
        };
        for door in doors {
            let phase = loadgen::closed_loop(door, entries, &cfg)?;
            if phase.answered() != entries.len() {
                return Err(format!(
                    "warm-up through {door}: {} of {} requests answered",
                    phase.answered(),
                    entries.len()
                ));
            }
        }
        Ok(())
    }

    /// Stop the router, then drain and stop the nodes; returns the nodes'
    /// reports. Every thread the fleet started has ended on return, except
    /// the router's helper threads (health probe, upstream readers), which
    /// exit within one health interval or read timeout of the stop.
    pub(crate) fn shutdown(self) -> Vec<NodeReport> {
        if let Some(r) = self.router {
            r.begin_shutdown();
            r.join();
        }
        for n in &self.nodes {
            n.begin_shutdown();
        }
        self.nodes.into_iter().map(NodeHandle::join).collect()
    }
}
