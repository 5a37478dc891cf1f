//! Per-node UDP state: port bindings and datagram demultiplexing.

use bytes::Bytes;

use crate::fxhash::FxHashMap;
use crate::ids::AppId;
use crate::packet::Addr;

/// A received UDP datagram, as delivered to an application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Datagram {
    /// Sender address (as claimed on the wire; floods may spoof it).
    pub src: Addr,
    /// Sender port.
    pub src_port: u16,
    /// Local port the datagram arrived on.
    pub dst_port: u16,
    /// Payload bytes.
    pub payload: Bytes,
}

/// Per-node UDP socket table.
#[derive(Debug, Default)]
pub struct UdpHost {
    bindings: FxHashMap<u16, AppId>,
    /// Datagrams dropped because no socket was bound to the port.
    pub unreachable: u64,
}

impl UdpHost {
    /// Creates an empty table.
    pub fn new() -> Self {
        UdpHost::default()
    }

    /// Binds `port` to `app`. Returns `false` if the port was taken.
    pub fn bind(&mut self, port: u16, app: AppId) -> bool {
        use std::collections::hash_map::Entry;
        match self.bindings.entry(port) {
            Entry::Occupied(_) => false,
            Entry::Vacant(v) => {
                v.insert(app);
                true
            }
        }
    }

    /// The application bound to `port`, if any.
    pub fn lookup(&self, port: u16) -> Option<AppId> {
        self.bindings.get(&port).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_is_exclusive() {
        let mut host = UdpHost::new();
        assert!(host.bind(53, AppId::from_raw(1)));
        assert!(!host.bind(53, AppId::from_raw(2)));
        assert_eq!(host.lookup(53), Some(AppId::from_raw(1)));
        assert_eq!(host.lookup(54), None);
    }
}
