//! # netsim — a deterministic discrete-event network simulator
//!
//! This crate is the NS-3 substitute of the DDoShield-IoT reproduction.
//! It provides a nanosecond-resolution virtual clock, a deterministic
//! event queue, nodes and links (point-to-point and CSMA buses with
//! bandwidth, delay and drop-tail queues), a miniature but faithful TCP
//! (handshake with bounded SYN backlog, reliable ordered delivery,
//! retransmission, AIMD congestion control) and UDP, plus an application
//! hosting API ([`world::App`]) on which the testbed's "IoT binaries"
//! (traffic servers, Mirai components, the IDS) run.
//!
//! Determinism: given the same topology, applications and root seed, a
//! run is bit-for-bit reproducible — events at equal timestamps execute
//! in scheduling order, and all randomness flows from [`rng::SimRng`].
//!
//! ## Example
//!
//! ```
//! use netsim::link::LinkConfig;
//! use netsim::packet::Addr;
//! use netsim::time::SimDuration;
//! use netsim::world::World;
//!
//! let mut world = World::new(42);
//! let a = world.add_node(Addr::new(10, 0, 0, 1), "server");
//! let b = world.add_node(Addr::new(10, 0, 0, 2), "device");
//! world.add_csma_link(&[a, b], LinkConfig::lan_100mbps());
//! world.run_for(SimDuration::from_secs(1));
//! assert_eq!(world.now().whole_secs(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod buggify;
pub mod event;
pub mod faults;
pub mod fxhash;
pub mod ids;
pub mod link;
pub mod node;
pub mod packet;
pub mod pool;
pub mod rng;
pub mod shard;
pub mod tap;
pub mod tcp;
pub mod time;
pub mod udp;
pub mod world;

pub use buggify::BuggifyConfig;
pub use faults::{FaultAction, FaultEntry, FaultPlan};
pub use ids::{AppId, ConnId, LinkId, NodeId, TimerId};
pub use link::LinkConfig;
pub use packet::{Addr, FiveTuple, Packet, Protocol, Provenance, TcpFlags};
pub use pool::{PacketId, PacketPool};
pub use rng::SimRng;
pub use tcp::{TcpEvent, MSS};
pub use time::{SimDuration, SimTime};
pub use udp::Datagram;
pub use world::{App, Ctx, World};
