//! Allocator-gated proof that the Fig. 4 star costs per host, not per
//! node pair.
//!
//! A farm of N servers is a star of N + 2 hosts, two directed links each.
//! The network finds a link by `(from, to)` in a map of the links that
//! exist, so building the star must peak at a bounded number of bytes per
//! host at any N. A dense `side × side` index of `u32` keeps 4 B per
//! node pair and peaks at ≈ 8.2 kB per host at 1 000 hosts and
//! ≈ 16.2 kB at 2 000.
//!
//! The whole check lives in ONE test fn: the counting allocator is
//! process-global, so concurrent tests in the same binary would pollute
//! the peak.

use netsim::topology::StarTopology;
use netsim::{LinkParams, NodeId};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{peak_bytes, reset_peak};

/// Peak bytes per host that building a star may take (288 measured).
const MAX_BYTES_PER_HOST: usize = 400;

#[test]
fn star_peaks_at_a_bounded_number_of_bytes_per_host() {
    for hosts in [1_000u16, 2_000] {
        let nodes: Vec<NodeId> = (1..=hosts).map(NodeId).collect();
        let floor = reset_peak();
        let star = StarTopology::new(NodeId(0), &nodes, LinkParams::fast_ethernet());
        let per_host = (peak_bytes() - floor) / usize::from(hosts);
        eprintln!("a star of {hosts} hosts peaks at {per_host} B per host");
        assert!(star.network.has_link(NodeId(hosts), NodeId(0)));
        assert!(
            per_host <= MAX_BYTES_PER_HOST,
            "a star of {hosts} hosts peaks at {per_host} B per host"
        );
    }
}
