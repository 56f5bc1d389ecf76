//! Domain-level suspicion: aggregating per-server death evidence into a
//! whole-failure-domain verdict.
//!
//! Backup-activated failover must not fire on one noisy link: a single
//! suspect server may be a detector false positive, but *every* member
//! of a rack going silent at once is a domain fault. [`DomainSuspicion`]
//! folds the per-node evidence the phi/SWIM layer already produces
//! (eviction upcalls, send failures, probe acks) into a per-domain state
//! machine with a sticky *declared* terminal state, so the consumer's
//! failover path runs exactly once per domain death even when evidence
//! keeps arriving.

use vbundle_sim::FlatMap;

/// Evidence-driven aggregation of per-server liveness into per-domain
/// death declarations.
///
/// The caller feeds it `mark_dead` / `mark_alive` evidence keyed by an
/// opaque member id (actor index), then asks [`declare`](Self::declare)
/// whether a given domain — identified by an opaque domain id with an
/// explicit member set — should be declared dead. A domain is declared
/// when **every** member has dead evidence and none has newer alive
/// evidence; the declaration is sticky until
/// [`retract`](Self::retract)ed (e.g. after the consumer has finished
/// failing over and fencing), so repeated evidence cannot re-trigger it.
#[derive(Debug, Default, Clone)]
pub struct DomainSuspicion {
    /// Per-member verdict: `true` = latest evidence says dead.
    dead: FlatMap<u64, bool>,
    /// Domains already declared dead (sticky).
    declared: FlatMap<u32, ()>,
}

impl DomainSuspicion {
    /// A fresh aggregator with no evidence.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records death evidence for `member` (detector eviction, bounced
    /// send, missed probe). Overrides earlier alive evidence.
    pub fn mark_dead(&mut self, member: u64) {
        self.dead.insert(member, true);
    }

    /// Records liveness evidence for `member` (probe ack, received
    /// message). Overrides earlier death evidence.
    pub fn mark_alive(&mut self, member: u64) {
        self.dead.insert(member, false);
    }

    /// Latest verdict for `member`, if any evidence was recorded.
    pub fn is_dead(&self, member: u64) -> bool {
        self.dead.get(&member).copied().unwrap_or(false)
    }

    /// Whether `domain` is currently declared dead.
    pub fn is_declared(&self, domain: u32) -> bool {
        self.declared.contains_key(&domain)
    }

    /// Attempts to declare `domain` (with the given member set) dead.
    ///
    /// Returns `true` exactly once per declaration: when every member has
    /// standing death evidence and the domain was not already declared.
    /// An empty member set never declares — no evidence is not evidence.
    pub fn declare(&mut self, domain: u32, members: impl IntoIterator<Item = u64>) -> bool {
        if self.declared.contains_key(&domain) {
            return false;
        }
        let mut any = false;
        for m in members {
            any = true;
            if !self.is_dead(m) {
                return false;
            }
        }
        if !any {
            return false;
        }
        self.declared.insert(domain, ());
        true
    }

    /// Withdraws a declaration, so fresh evidence can re-declare the
    /// domain if it dies again (the consumer calls this once its
    /// failover for the previous death has fully reconciled).
    pub fn retract(&mut self, domain: u32) {
        self.declared.remove(&domain);
    }

    /// Domains currently declared dead, in order.
    pub fn declared(&self) -> impl Iterator<Item = u32> + '_ {
        self.declared.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declares_only_when_every_member_dead() {
        let mut s = DomainSuspicion::new();
        s.mark_dead(1);
        assert!(!s.declare(0, [1, 2]));
        s.mark_dead(2);
        assert!(s.declare(0, [1, 2]));
        assert!(s.is_declared(0));
    }

    #[test]
    fn declaration_is_sticky_and_idempotent() {
        let mut s = DomainSuspicion::new();
        s.mark_dead(1);
        assert!(s.declare(0, [1]));
        // Re-declaring (even with identical evidence) fires nothing.
        assert!(!s.declare(0, [1]));
        // Alive evidence after declaration does not undeclare.
        s.mark_alive(1);
        assert!(s.is_declared(0));
    }

    #[test]
    fn alive_evidence_blocks_declaration() {
        let mut s = DomainSuspicion::new();
        s.mark_dead(1);
        s.mark_dead(2);
        s.mark_alive(2);
        assert!(!s.declare(0, [1, 2]));
        assert!(!s.is_declared(0));
    }

    #[test]
    fn empty_member_set_never_declares() {
        let mut s = DomainSuspicion::new();
        assert!(!s.declare(3, []));
        assert!(!s.is_declared(3));
    }

    #[test]
    fn retract_allows_repeat_declaration() {
        let mut s = DomainSuspicion::new();
        s.mark_dead(7);
        assert!(s.declare(1, [7]));
        s.retract(1);
        assert!(!s.is_declared(1));
        // The domain died again: same evidence re-declares after retract.
        assert!(s.declare(1, [7]));
    }

    #[test]
    fn declared_walks_in_order() {
        let mut s = DomainSuspicion::new();
        s.mark_dead(1);
        s.mark_dead(2);
        assert!(s.declare(5, [1]));
        assert!(s.declare(2, [2]));
        let order: Vec<u32> = s.declared().collect();
        assert_eq!(order, vec![2, 5]);
    }
}
