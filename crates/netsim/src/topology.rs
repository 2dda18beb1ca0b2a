//! Canned topologies — the paper's Fig. 4 star in particular.

use crate::{LinkId, LinkParams, Network, NodeId};

/// The Fig. 4 testbed: SIP call-generator client, SIP call-generator
/// server, and the Asterisk PBX, all attached to one switch.
#[derive(Debug, Clone)]
pub struct StarTopology {
    /// The switch at the centre.
    pub switch: NodeId,
    /// The network with all host↔switch links installed.
    pub network: Network,
}

/// Well-known node numbers for the Fig. 4 testbed.
pub mod nodes {
    use crate::NodeId;
    /// The switch.
    pub const SWITCH: NodeId = NodeId(0);
    /// SIPp call-generator client (the UAC).
    pub const SIPP_CLIENT: NodeId = NodeId(1);
    /// SIPp call-generator server (the UAS).
    pub const SIPP_SERVER: NodeId = NodeId(2);
    /// The Asterisk PBX.
    pub const PBX: NodeId = NodeId(3);
}

impl StarTopology {
    /// Build a star of `hosts` around `switch`, each attachment using the
    /// same link parameters.
    #[must_use]
    pub fn new(switch: NodeId, hosts: &[NodeId], params: LinkParams) -> Self {
        let mut network = Network::new();
        for &h in hosts {
            network.add_duplex_link(h, switch, params);
        }
        StarTopology { switch, network }
    }

    /// The paper's testbed: three hosts on a 100 Mb/s switch.
    #[must_use]
    pub fn fig4_testbed() -> Self {
        StarTopology::new(
            nodes::SWITCH,
            &[nodes::SIPP_CLIENT, nodes::SIPP_SERVER, nodes::PBX],
            LinkParams::fast_ethernet(),
        )
    }

    /// Next hop from `from` towards `dst`, from the star's shape alone:
    /// the switch forwards to `dst`, and a host sends everything to the
    /// switch. Whether that link exists is [`Network::enqueue`]'s to say.
    #[inline]
    #[must_use]
    pub fn next_hop(&self, from: NodeId, dst: NodeId) -> NodeId {
        if from == self.switch {
            dst
        } else {
            self.switch
        }
    }

    /// The two links a packet crosses from `from` to `to` by way of
    /// [`StarTopology::next_hop`] — host → switch → host in the star —
    /// resolved once for a sender that will use them many times
    /// ([`Network::enqueue_on`]). `None` when either link is missing,
    /// which includes every pair joined by a direct link.
    #[must_use]
    pub fn two_hop_route(&self, from: NodeId, to: NodeId) -> Option<[LinkId; 2]> {
        let via = self.next_hop(from, to);
        Some([
            self.network.link_id(from, via)?,
            self.network.link_id(via, to)?,
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::{SimTime, StreamRng};

    #[test]
    fn fig4_testbed_wiring() {
        let topo = StarTopology::fig4_testbed();
        for h in [nodes::SIPP_CLIENT, nodes::SIPP_SERVER, nodes::PBX] {
            assert!(topo.network.has_link(h, nodes::SWITCH));
            assert!(topo.network.has_link(nodes::SWITCH, h));
        }
        assert!(
            !topo.network.has_link(nodes::SIPP_CLIENT, nodes::PBX),
            "hosts only reach each other via the switch"
        );
    }

    #[test]
    fn next_hop_routes_via_switch() {
        let topo = StarTopology::fig4_testbed();
        assert_eq!(topo.next_hop(nodes::SIPP_CLIENT, nodes::PBX), nodes::SWITCH);
        assert_eq!(
            topo.next_hop(nodes::SIPP_CLIENT, nodes::SWITCH),
            nodes::SWITCH
        );
        assert_eq!(topo.next_hop(nodes::SWITCH, nodes::PBX), nodes::PBX);
        // The switch has no link to a node not in the star.
        let mut topo = topo;
        let stranger = NodeId(77);
        let hop = topo.next_hop(nodes::SWITCH, stranger);
        assert_eq!(
            topo.network.enqueue(
                SimTime::ZERO,
                nodes::SWITCH,
                hop,
                218,
                &mut StreamRng::seed_from_u64(1)
            ),
            crate::SendOutcome::NoRoute
        );
    }

    #[test]
    fn two_hop_route_names_the_links_next_hop_would_take() {
        let mut topo = StarTopology::fig4_testbed();
        let route = topo
            .two_hop_route(nodes::SIPP_CLIENT, nodes::PBX)
            .expect("host to host");
        let net = &topo.network;
        assert_eq!(
            route.map(Some),
            [
                net.link_id(nodes::SIPP_CLIENT, nodes::SWITCH),
                net.link_id(nodes::SWITCH, nodes::PBX)
            ]
        );
        // A directly linked pair (host → switch) is one hop, not two.
        assert_eq!(topo.two_hop_route(nodes::PBX, nodes::SWITCH), None);
        assert_eq!(topo.two_hop_route(nodes::PBX, NodeId(77)), None);
        // Chasing a packet down the route is chasing it hop by hop.
        let mut by_route = topo.clone();
        let (mut rng_a, mut rng_b) = (StreamRng::seed_from_u64(3), StreamRng::seed_from_u64(3));
        let mut at = SimTime::from_millis(7);
        for link in route {
            match by_route.network.enqueue_on(link, at, 218, &mut rng_a) {
                crate::SendOutcome::Delivered { at: next } => at = next,
                other => panic!("{other:?}"),
            }
        }
        let mut want = SimTime::from_millis(7);
        for (from, to) in [
            (nodes::SIPP_CLIENT, nodes::SWITCH),
            (nodes::SWITCH, nodes::PBX),
        ] {
            match topo.network.enqueue(want, from, to, 218, &mut rng_b) {
                crate::SendOutcome::Delivered { at: next } => want = next,
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(at, want);
    }
}
