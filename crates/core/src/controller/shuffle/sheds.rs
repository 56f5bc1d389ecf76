//! The shedder's open queries, one row per query in ascending query id.
//!
//! A shedder opens at most `MAX_SHEDS_PER_ROUND` queries per round, and a
//! `Sent` row lives only until its ack or rollback, so the rows sit in one
//! short `Vec` found by binary search, where a `BTreeMap` would pay an
//! 11-slot leaf (1 432 B) for the same 1–8 rows. An empty table holds no
//! buffer.

use super::Shed;

/// Open queries by id, kept in ascending id order: restart re-arms the ack
/// timers in that order.
#[derive(Debug, Default)]
pub(super) struct Sheds(Vec<(u64, Shed)>);

impl Sheds {
    fn slot(&self, query: u64) -> Result<usize, usize> {
        self.0.binary_search_by_key(&query, |&(q, _)| q)
    }

    pub fn get(&self, query: &u64) -> Option<&Shed> {
        self.slot(*query).ok().map(|i| &self.0[i].1)
    }

    /// Sets `query`'s stage and returns the one it replaced.
    pub fn insert(&mut self, query: u64, stage: Shed) -> Option<Shed> {
        match self.slot(query) {
            Ok(i) => Some(std::mem::replace(&mut self.0[i].1, stage)),
            Err(i) => {
                self.0.insert(i, (query, stage));
                None
            }
        }
    }

    pub fn remove(&mut self, query: &u64) -> Option<Shed> {
        let (_, stage) = self.0.remove(self.slot(*query).ok()?);
        self.release_if_empty();
        Some(stage)
    }

    pub fn retain(&mut self, mut keep: impl FnMut(&Shed) -> bool) {
        self.0.retain(|(_, stage)| keep(stage));
        self.release_if_empty();
    }

    /// Most servers shed in bursts and sit idle between them: an empty
    /// table gives its buffer back instead of keeping up to 1 KB.
    fn release_if_empty(&mut self) {
        if self.0.is_empty() {
            self.0 = Vec::new();
        }
    }

    /// Rows in ascending query id.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &Shed)> {
        self.0.iter().map(|(query, stage)| (*query, stage))
    }

    pub fn values(&self) -> impl Iterator<Item = &Shed> {
        self.0.iter().map(|(_, stage)| stage)
    }
}

#[cfg(test)]
mod tests {
    use super::super::*;
    use crate::controller::tests::{controller, vm};
    use vbundle_pastry::Id;
    use vbundle_sim::ActorId;

    /// Queries open, settle and leave out of order; the table still hands
    /// restart the `Sent` rows in ascending query id, and the in-flight list
    /// stays sorted by VM id (query 3 carries the larger VM id).
    #[test]
    fn restart_rearms_sent_queries_in_query_order() {
        let receiver = NodeHandle::new(Id::from_u128(7), ActorId::new(7));
        let mut c = controller(0.15);
        for (query, id) in [(9, 15), (3, 30), (7, 20), (5, 10)] {
            c.install_vm(vm(id, 100.0, 200.0, 150.0));
            c.shuffle.sheds.insert(query, Shed::Offered(VmId(id)));
        }
        // 5 finds no receiver; 9 and then 3 leave; 7 stays out in the tree.
        let accept = |id| ShedEvent::Accept {
            vm: VmId(id),
            receiver,
        };
        let events = [(5, ShedEvent::NoReceiver), (9, accept(15)), (3, accept(30))];
        for (query, event) in events {
            let left = c.shuffle.step(&mut c.host, &mut c.stats, query, event);
            assert!(left.is_some(), "query {query}: {event:?}");
            if let ShedEvent::Accept { .. } = event {
                c.shuffle.courier.register(query);
            }
        }
        let queries: Vec<u64> = c.shuffle.sheds.iter().map(|(q, _)| q).collect();
        assert_eq!(queries, [3, 7, 9]);

        let mut armed = Vec::new();
        c.shuffle
            .rearm(|_, tag| armed.push(tag & !MIGRATE_RETRY_TAG_BASE));
        assert_eq!(armed, [3, 9]);
        let in_flight: Vec<VmId> = c.shuffle.in_flight_vms().iter().map(|v| v.id).collect();
        assert_eq!(in_flight, [VmId(15), VmId(30)]);
        assert!(c.shuffle.offered(VmId(20)));
    }

    #[test]
    fn an_empty_table_holds_no_buffer() {
        let mut sheds = Sheds::default();
        for query in [4, 2] {
            sheds.insert(query, Shed::Offered(VmId(query)));
        }
        assert_eq!(sheds.remove(&2), Some(Shed::Offered(VmId(2))));
        assert_eq!(sheds.remove(&2), None);
        assert!(sheds.0.capacity() > 0);
        assert_eq!(sheds.remove(&4), Some(Shed::Offered(VmId(4))));
        assert_eq!(sheds.0.capacity(), 0);
        sheds.insert(1, Shed::Offered(VmId(1)));
        sheds.retain(|stage| *stage != Shed::Offered(VmId(1)));
        assert_eq!(sheds.0.capacity(), 0);
    }
}
