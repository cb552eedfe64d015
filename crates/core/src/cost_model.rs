//! The query-time cost model: §6.5's recurrences instantiated with
//! *measured* qualities.
//!
//! The physical query execution charges measured `congestion ×
//! dilation` costs for every movement it actually performs (dispersal
//! moves, matching hops, chain deliveries). The expander-sort subcalls
//! that the paper invokes *inside* Task 3 (portal routing §6.2, merge
//! §6.3) are charged through the unit costs below — the recurrences of
//! Theorems 5.6/6.8 with all `Q(·)` quantities measured from the
//! preprocessed structures. All units are "rounds per unit load": the
//! recurrences are linear in `L` (§6.5.2), so a query at load `L`
//! charges `L × unit`.

use crate::network::odd_even_depth;
use crate::router::NodeTables;
use congest_sim::cost;
use expander_decomp::{Hierarchy, NodeId};

/// Per-node unit costs (rounds per unit load) for the charged
/// subroutines.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// `⌈log₂ n⌉` — the load blow-up factor of Lemma 6.6.
    pub c_logn: u64,
    /// `⌈ρ_best⌉` (Definition 3.7).
    pub rho_ceil: u64,
    /// Unit cost of one leaf-network pass (leaves only; 0 elsewhere).
    pub leafnet_unit: Vec<u64>,
    /// Unit cost of one full shuffler dispersal's token moves, at the
    /// Lemma 6.6 per-portal batch constant (internal nodes only).
    pub move_unit: Vec<u64>,
    /// The worst quality of one shuffler round's paths in `G`, at least
    /// 2 (internal nodes only; 0 at leaves).
    pub(crate) round_quality: Vec<u64>,
    /// `max_i Q(f⁰(M*_i))²` per node.
    pub mstar_sq: Vec<u64>,
    /// `T_sort(X, L)/L` (Theorem 5.6 recurrence).
    pub tsort_unit: Vec<u64>,
    /// `T₂(X, L)/L` (Theorem 6.8 recurrence).
    pub t2_unit: Vec<u64>,
    /// `T₃(X, L)/L` (Theorem 6.8 recurrence).
    pub t3_unit: Vec<u64>,
}

impl CostModel {
    /// Builds the model bottom-up over the hierarchy.
    ///
    /// `tables` (each internal node's [`NodeTables`]), `leaf_pass`
    /// (each leaf's
    /// [`EmbeddedNetwork::pass_cost`](crate::network::EmbeddedNetwork::pass_cost)
    /// at load 1; ignored elsewhere), and `mstar_sq` are indexed by
    /// [`NodeId`].
    pub(crate) fn build(
        h: &Hierarchy,
        tables: &[Option<NodeTables>],
        leaf_pass: &[u64],
        mstar_sq: Vec<u64>,
    ) -> CostModel {
        let n_nodes = h.nodes().len();
        let c_logn = (h.graph().n() as f64).log2().ceil().max(1.0) as u64;
        let rho_ceil = h.rho_best().ceil().max(1.0) as u64;
        let mut model = CostModel {
            c_logn,
            rho_ceil,
            leafnet_unit: vec![0; n_nodes],
            move_unit: vec![0; n_nodes],
            round_quality: vec![0; n_nodes],
            mstar_sq,
            tsort_unit: vec![0; n_nodes],
            t2_unit: vec![0; n_nodes],
            t3_unit: vec![0; n_nodes],
        };

        // Deepest nodes first.
        let mut order: Vec<NodeId> = (0..n_nodes).collect();
        order.sort_by_key(|&id| std::cmp::Reverse(h.node(id).level));
        for id in order {
            let nd = h.node(id);
            if nd.is_leaf() {
                let unit = leaf_pass[id].max(1);
                model.leafnet_unit[id] = unit;
                // §6.4: three meet-in-the-middle passes with up to 2L
                // extra dummies per vertex.
                model.t2_unit[id] = 6 * unit;
                // Theorem 5.6 leaf case.
                model.tsort_unit[id] = 3 * unit;
                continue;
            }
            let tab = tables[id].as_ref().expect("internal node has tables");
            let lambda = tab.round_tables.len() as u64;
            // Shuffler move cost at the Lemma 6.6 per-portal batch
            // (19L tokens pile up at portals in the worst iteration).
            // The worst round quality reuses the same measurements:
            // each `congestion()` call clears an edge-space vector.
            let (mut move_unit, mut round_quality) = (0, 2);
            for fp in &tab.rounds_flat {
                let (c, d) = (fp.congestion() as u64, fp.dilation() as u64);
                move_unit += cost::route_batched_cd(c, d, 19);
                round_quality = round_quality.max(c + d);
            }
            model.move_unit[id] = move_unit;
            model.round_quality[id] = round_quality;
            let child_tsort = nd.parts.iter().map(|p| model.tsort_unit[p.child]).max().unwrap_or(1);
            let child_t2 = nd.parts.iter().map(|p| model.t2_unit[p.child]).max().unwrap_or(1);
            // T₃(X, L) = O(log n)·T_sort(child, O(L log n)) + O(L)·Q²
            // (Theorem 6.8), doubled for the dummy flock plus one
            // merge sort (§6.3).
            let t3 = 2 * (lambda * 2 * c_logn * child_tsort + move_unit) + c_logn * child_tsort;
            model.t3_unit[id] = t3;
            // T₂(X, L) = T₃(X, L) + O(L)·Q(f⁰_{M_X})² + T₂(child, 4L).
            model.t2_unit[id] = t3 + 2 * model.mstar_sq[id] + 4 * child_t2;
            // T_sort(X, L) = T₃ + Lρ·Q(I_net)² + L·Q(f⁰_{M_X})² +
            // T_sort(child, L). The routable network over X_best is
            // precomputed via Task 2 (Theorem 5.6's proof); its layer
            // quality is proxied by the node's measured *per-round*
            // embedding qualities (the union quality of Definition 5.4
            // over-counts congestion across iterations that never share
            // a round).
            let q_net = (nd.flat_quality as u64).max(round_quality);
            let layers = odd_even_depth(nd.best.len().max(2)) as u64;
            model.tsort_unit[id] =
                t3 + rho_ceil * layers * 2 * q_net * q_net + model.mstar_sq[id] + child_tsort;
        }
        model
    }

    /// `T₂(node, load)` in rounds.
    pub fn t2(&self, node: NodeId, load: u64) -> u64 {
        load.max(1) * self.t2_unit[node]
    }

    /// `T₃(node, load)` in rounds.
    pub fn t3(&self, node: NodeId, load: u64) -> u64 {
        load.max(1) * self.t3_unit[node]
    }

    /// `T_sort(node, load)` in rounds.
    pub fn tsort(&self, node: NodeId, load: u64) -> u64 {
        load.max(1) * self.tsort_unit[node]
    }
}

#[cfg(test)]
mod tests {
    use crate::router::{Router, RouterConfig};
    use expander_graphs::generators;

    fn router(n: usize, seed: u64) -> Router {
        let g = generators::random_regular(n, 4, seed).expect("generator");
        Router::preprocess(&g, RouterConfig::for_epsilon(0.4)).expect("router")
    }

    #[test]
    fn recurrence_ordering_holds_per_node() {
        // §6.5: Tsort >= T3 (Tsort's recurrence contains T3), and T2
        // >= T3 likewise; leaves have T3 = 0.
        let r = router(256, 1);
        let cm = r.cost_model();
        for nd in r.hierarchy().nodes() {
            if nd.is_leaf() {
                assert_eq!(cm.t3_unit[nd.id], 0);
                assert!(cm.leafnet_unit[nd.id] > 0);
            } else {
                assert!(cm.tsort_unit[nd.id] >= cm.t3_unit[nd.id]);
                assert!(cm.t2_unit[nd.id] >= cm.t3_unit[nd.id]);
                assert_eq!(cm.leafnet_unit[nd.id], 0);
            }
        }
    }

    #[test]
    fn units_accumulate_up_the_hierarchy() {
        // Parents dominate children: every recurrence adds the child's
        // own unit plus this level's work.
        let r = router(512, 2);
        let cm = r.cost_model();
        for nd in r.hierarchy().nodes() {
            for p in &nd.parts {
                assert!(cm.tsort_unit[nd.id] > cm.tsort_unit[p.child]);
                assert!(cm.t2_unit[nd.id] > cm.t2_unit[p.child]);
            }
        }
    }

    #[test]
    fn charges_scale_linearly_with_load() {
        let r = router(256, 3);
        let cm = r.cost_model();
        let root = r.hierarchy().root();
        assert_eq!(cm.t2(root, 4), 4 * cm.t2(root, 1));
        assert_eq!(cm.t3(root, 8), 8 * cm.t3(root, 1));
        assert_eq!(cm.tsort(root, 0), cm.tsort(root, 1), "load clamps to 1");
    }

    #[test]
    fn global_constants_are_sane() {
        let r = router(256, 4);
        let cm = r.cost_model();
        assert_eq!(cm.c_logn, 8, "log2(256)");
        assert!(cm.rho_ceil >= 1);
    }
}
