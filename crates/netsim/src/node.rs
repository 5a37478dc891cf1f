//! Simulated nodes (hosts) and their transport state.

use serde::{Deserialize, Serialize};

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
    /// Packets discarded because the node was attached to no link.
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
    /// The link every packet this node sends goes out on: the first
    /// link it was attached to.
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
    /// default link.
    pub fn attach(&mut self, link: LinkId) {
        if self.default_link.is_none() {
            self.default_link = Some(link);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_attachment_is_default_route() {
        let mut n = Node::new(NodeId::from_raw(0), Addr::new(10, 0, 0, 1), "dev-0");
        assert_eq!(n.default_link, None);
        n.attach(LinkId::from_raw(5));
        n.attach(LinkId::from_raw(6));
        assert_eq!(n.default_link, Some(LinkId::from_raw(5)));
    }
}
