//! Simulated nodes (hosts) and their routing/transport state.

use serde::{Deserialize, Serialize};

use crate::fxhash::FxHashMap;
use crate::ids::{LinkId, NodeId};
use crate::packet::Addr;
use crate::tcp::TcpHost;
use crate::time::{SimDuration, SimTime};
use crate::udp::UdpHost;

/// Traffic counters for a node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeStats {
    /// Packets handed to a link for transmission.
    pub sent_packets: u64,
    /// Bytes handed to a link for transmission.
    pub sent_bytes: u64,
    /// Packets delivered to this node.
    pub recv_packets: u64,
    /// Bytes delivered to this node.
    pub recv_bytes: u64,
    /// Packets discarded because the node was administratively down.
    pub dropped_down: u64,
    /// Packets discarded because no route matched the destination.
    pub dropped_no_route: u64,
}

/// A simulated host.
#[derive(Debug)]
pub struct Node {
    /// The node's identifier.
    pub id: NodeId,
    /// The node's IPv4 address.
    pub addr: Addr,
    /// Human-readable name, for diagnostics.
    pub name: String,
    /// Administrative state (churned-out devices are down).
    pub up: bool,
    /// Links this node is attached to.
    pub links: Vec<LinkId>,
    /// Explicit host routes.
    pub routes: FxHashMap<Addr, LinkId>,
    /// Fallback link for unmatched destinations.
    pub default_link: Option<LinkId>,
    /// TCP state.
    pub tcp: TcpHost,
    /// UDP state.
    pub udp: UdpHost,
    /// Traffic counters.
    pub stats: NodeStats,
    /// CPU-pressure factor injected by fault plans: modelled compute on
    /// this node costs `cpu_pressure ×` its nominal time (1.0 = unloaded).
    pub cpu_pressure: f64,
    /// When the node last went down (`None` while up). Maintained by
    /// the kernel on every administrative transition so downtime is
    /// exact regardless of whether churn, a fault plan or a manual
    /// call flipped the state.
    pub down_since: Option<SimTime>,
    /// Accumulated time spent down over closed down→up intervals.
    pub downtime_total: SimDuration,
}

impl Node {
    /// Creates an isolated, up node.
    pub fn new(id: NodeId, addr: Addr, name: impl Into<String>) -> Self {
        Node {
            id,
            addr,
            name: name.into(),
            up: true,
            links: Vec::new(),
            routes: FxHashMap::default(),
            default_link: None,
            tcp: TcpHost::new(),
            udp: UdpHost::new(),
            stats: NodeStats::default(),
            cpu_pressure: 1.0,
            down_since: None,
            downtime_total: SimDuration::ZERO,
        }
    }

    /// Total time this node has spent administratively down, including
    /// the still-open interval if it is down at `now`.
    pub fn downtime(&self, now: SimTime) -> SimDuration {
        match self.down_since {
            Some(since) => self.downtime_total + (now - since),
            None => self.downtime_total,
        }
    }

    /// Attaches the node to a link; the first attachment becomes the
    /// default route.
    pub fn attach(&mut self, link: LinkId) {
        if !self.links.contains(&link) {
            self.links.push(link);
        }
        if self.default_link.is_none() {
            self.default_link = Some(link);
        }
    }

    /// Chooses the egress link for a destination address.
    pub fn route(&self, dst: Addr) -> Option<LinkId> {
        self.routes.get(&dst).copied().or(self.default_link)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_attachment_is_default_route() {
        let mut n = Node::new(NodeId::from_raw(0), Addr::new(10, 0, 0, 1), "dev-0");
        assert_eq!(n.route(Addr::new(1, 2, 3, 4)), None);
        n.attach(LinkId::from_raw(5));
        n.attach(LinkId::from_raw(6));
        assert_eq!(n.route(Addr::new(1, 2, 3, 4)), Some(LinkId::from_raw(5)));
    }

    #[test]
    fn host_routes_override_default() {
        let mut n = Node::new(NodeId::from_raw(0), Addr::new(10, 0, 0, 1), "dev-0");
        n.attach(LinkId::from_raw(1));
        n.routes.insert(Addr::new(10, 0, 0, 9), LinkId::from_raw(2));
        assert_eq!(n.route(Addr::new(10, 0, 0, 9)), Some(LinkId::from_raw(2)));
        assert_eq!(n.route(Addr::new(10, 0, 0, 8)), Some(LinkId::from_raw(1)));
    }

    #[test]
    fn duplicate_attach_is_idempotent() {
        let mut n = Node::new(NodeId::from_raw(0), Addr::new(10, 0, 0, 1), "dev-0");
        n.attach(LinkId::from_raw(1));
        n.attach(LinkId::from_raw(1));
        assert_eq!(n.links.len(), 1);
    }
}
