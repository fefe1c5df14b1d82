//! Virtual communication interfaces (VCIs): the partitioning remedy.
//!
//! The PPoPP'15 paper attacks contention on MPICH's single global
//! critical section by changing *arbitration* (FCFS ticket, two-level
//! priority). The follow-on literature (user-visible endpoints, MPIxT
//! threads-as-contexts) shows the bigger win is *eliminating* the shared
//! section: partition runtime state into N independent shards, each with
//! its own lock, match queues, and sequence space, and route every
//! operation to exactly one shard.
//!
//! This module holds the routing half of that design: [`VciMap`], a
//! deterministic map from a message's envelope to a VCI index, and
//! [`pick_starved_burst`], the work-stealing victim selector.
//!
//! Determinism contract: [`VciMap::select_for`] is a pure function of
//! the envelope and the map. Sender and receiver evaluate it on the same
//! key (the *message's* `(src, dst)`, not "my rank"), so both sides
//! independently agree on the shard and no coordination traffic is
//! needed. With `count == 1` every envelope maps to VCI 0 and the
//! runtime collapses to the unsharded code path byte-for-byte.

/// Deterministic envelope → VCI map, with one of two routes:
///
/// * [`Self::new`] (the default) hashes `(comm, src, dst)` with
///   splitmix64 — tags never influence routing;
/// * [`Self::by_tag`] pins tag residue classes to shards.
#[derive(Debug, Clone, Copy)]
pub struct VciMap {
    count: u32,
    by_tag: bool,
}

/// splitmix64 finalizer — cheap, well-mixed, and stable across builds
/// (no `RandomState`-style per-process seeding, which would break the
/// byte-identical-replay contract).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl VciMap {
    /// Hash-routed map over `count` VCIs: all traffic between one
    /// `(comm, src, dst)` pair shares a shard, so per-source ordering is
    /// whole-shard-local and a receiver never needs the tag to resolve
    /// the shard.
    pub const fn new(count: u32) -> Self {
        Self {
            count,
            by_tag: false,
        }
    }

    /// One shard per tag residue class: tag `t` → VCI `t mod count`.
    /// The natural binding for "one tag per thread" workloads — traffic
    /// is perfectly balanced and every selective receive resolves to a
    /// single shard.
    pub const fn by_tag(count: u32) -> Self {
        Self {
            count,
            by_tag: true,
        }
    }

    /// Number of VCIs this map routes across.
    pub(crate) fn count(&self) -> u32 {
        self.count
    }

    /// Route a fully known envelope to its VCI. Pure: same envelope,
    /// same map ⇒ same answer on every rank and every run.
    pub fn select_for(&self, comm: u16, src: u32, dst: u32, tag: i32) -> u32 {
        debug_assert!(self.count > 0, "VciMap with zero VCIs is unusable");
        if self.count <= 1 {
            return 0;
        }
        if self.by_tag {
            // i64 arithmetic: `i32::MIN.rem_euclid` can't overflow here,
            // and negative tags fold with rem_euclid, not truncation.
            return i64::from(tag).rem_euclid(i64::from(self.count)) as u32;
        }
        let packed = (u64::from(comm) << 48) ^ (u64::from(src) << 24) ^ u64::from(dst);
        (splitmix64(packed) % u64::from(self.count)) as u32
    }

    /// Route a receive that may hold wildcards. `None` means the shard
    /// cannot be resolved from what the receiver knows — the receive
    /// must be fanned out to every shard (two-phase wildcard protocol).
    ///
    /// Resolution fails only when `count > 1` **and** the source is
    /// unknown, or the tag is unknown under [`Self::by_tag`].
    pub(crate) fn select_recv(
        &self,
        comm: u16,
        src: Option<u32>,
        dst: u32,
        tag: Option<i32>,
    ) -> Option<u32> {
        if self.count <= 1 {
            return Some(0);
        }
        let src = src?;
        match tag {
            Some(t) => Some(self.select_for(comm, src, dst, t)),
            // The hash route ignores the tag, so ANY_TAG still resolves.
            None if !self.by_tag => Some(self.select_for(comm, src, dst, 0)),
            None => None,
        }
    }
}

/// Work-stealing victim selection: up to `max` shards, starved-first
/// (ascending `(last_poll_ns, index)` — the shard whose mailbox has gone
/// unpolled the longest heads the list, ties to the lowest index),
/// excluding every shard in `exclude`. At high shard counts a single
/// steal per spin window serializes recovery on one mailbox while the
/// rest keep starving; a burst drains the backlog in one pass.
pub(crate) fn pick_starved_burst(last_poll_ns: &[u64], exclude: &[u32], max: usize) -> Vec<u32> {
    let mut victims: Vec<(u64, u32)> = last_poll_ns
        .iter()
        .enumerate()
        .filter(|&(v, _)| !exclude.contains(&(v as u32)))
        .map(|(v, &t)| (t, v as u32))
        .collect();
    victims.sort_unstable();
    victims.truncate(max);
    victims.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_one_maps_everything_to_zero() {
        for m in [VciMap::new(1), VciMap::by_tag(1)] {
            for src in 0..8 {
                assert_eq!(m.select_for(0, src, 1, src as i32), 0);
            }
            assert_eq!(m.select_recv(0, None, 3, None), Some(0));
        }
    }

    #[test]
    fn select_is_deterministic_and_in_range() {
        let m = VciMap::new(7);
        for src in 0..32 {
            for dst in 0..4 {
                let a = m.select_for(0, src, dst, 0);
                let b = m.select_for(0, src, dst, 0);
                assert_eq!(a, b, "same envelope must route identically");
                assert!(a < 7);
            }
        }
    }

    #[test]
    fn hash_routing_spreads_sources() {
        // Not a statistical claim — just "the map is not degenerate":
        // 64 distinct sources to one destination hit more than one shard.
        let m = VciMap::new(8);
        let shards: std::collections::BTreeSet<u32> =
            (0..64).map(|s| m.select_for(0, s, 0, 0)).collect();
        assert!(shards.len() > 1, "all sources collapsed onto one VCI");
    }

    #[test]
    fn sender_and_receiver_agree_on_the_shard() {
        for m in [VciMap::new(4), VciMap::by_tag(4)] {
            for tag in [-5i32, 0, 3, 1000] {
                let sender = m.select_for(2, 1, 0, tag);
                let receiver = m.select_recv(2, Some(1), 0, Some(tag));
                assert_eq!(Some(sender), receiver);
            }
        }
    }

    #[test]
    fn wildcards_resolve_exactly_when_routing_ignores_them() {
        let hash = VciMap::new(4); // tags not routed
        assert!(hash.select_recv(0, Some(1), 0, None).is_some());
        assert!(hash.select_recv(0, None, 0, Some(7)).is_none());
        assert!(hash.select_recv(0, None, 0, None).is_none());

        let tagged = VciMap::by_tag(4); // tags routed
        assert!(tagged.select_recv(0, Some(1), 0, None).is_none());
        assert!(tagged.select_recv(0, Some(1), 0, Some(7)).is_some());
    }

    #[test]
    fn by_tag_binds_tag_residues_to_shards() {
        let m = VciMap::by_tag(4);
        for t in 0..16 {
            assert_eq!(m.select_for(0, 0, 1, t), (t % 4) as u32);
        }
        // Negative tags fold with rem_euclid, not truncation.
        assert_eq!(m.select_for(0, 0, 1, -1), 3);
        // Receiver with a known tag resolves; with ANY_TAG it fans out.
        assert_eq!(m.select_recv(0, Some(0), 1, Some(6)), Some(2));
        assert_eq!(m.select_recv(0, Some(0), 1, None), None);
    }

    #[test]
    fn burst_orders_starved_first_and_caps_at_max() {
        let snap = [50, 10, 30, 10, 0, 20];
        assert_eq!(pick_starved_burst(&snap, &[4], 3), vec![1, 3, 5]);
        assert_eq!(pick_starved_burst(&snap, &[4], 10), vec![1, 3, 5, 2, 0]);
        assert_eq!(pick_starved_burst(&snap, &[4], 0), Vec::<u32>::new());
        // A lone shard excluded as home leaves no victim.
        assert_eq!(pick_starved_burst(&[5], &[0], 1), Vec::<u32>::new());
    }

    #[test]
    fn burst_excludes_every_listed_shard() {
        let snap = [1, 2, 3, 4];
        assert_eq!(
            pick_starved_burst(&snap, &[0, 1, 2, 3], 4),
            Vec::<u32>::new()
        );
        assert_eq!(pick_starved_burst(&snap, &[0, 2], 4), vec![1, 3]);
    }
}
