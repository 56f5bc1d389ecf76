//! The minimal liveness-probe wire message shared by overlay tests and
//! the failure-detection machinery.

use vbundle_sim::{Message, MsgCategory};

/// A liveness probe carrying a nonce that correlates request and echo.
///
/// Pastry's overlay tests route `Probe`s as their application payload;
/// protocol layers embed it wherever a content-free "are you there?"
/// round-trip feeds a [`PeerDetector`](crate::PeerDetector).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Probe(pub u64);

impl Message for Probe {
    fn wire_size(&self) -> usize {
        12 // 8-byte nonce + framing
    }

    fn category(&self) -> MsgCategory {
        MsgCategory::Maintenance
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_is_maintenance_traffic() {
        assert_eq!(Probe(7).wire_size(), 12);
        assert_eq!(Probe(7).category(), MsgCategory::Maintenance);
    }
}
