//! Graceful degradation off the expander happy path: route through an
//! expander decomposition when single-hierarchy construction fails.
//!
//! [`Router::preprocess`] implements Theorem 1.1, whose precondition is
//! a connected φ-expander; on anything else it (rightly) refuses with a
//! [`BuildError`]. Following the Chang–Saranurak expander-decomposition
//! line (arXiv:2007.14898) and the paper's own Corollary 1.4,
//! [`RoutedDecomposition`] degrades gracefully instead: when the input
//! is not certifiably an expander, it removes a small fraction of edges
//! ([`expander_decomp::decomposition_for_epsilon`]) so every remaining
//! piece is one, builds a per-piece hierarchy where the piece is large
//! enough to certify (falling back to direct BFS routing inside tiny or
//! stubborn pieces), and answers queries piece by piece. Tokens whose
//! endpoints land in *different* pieces are reported as structured
//! [`Undeliverable`] outcomes — the paper's expander-routing
//! preconditions genuinely do not hold for them, and no panic is ever
//! an acceptable way to say so.
//!
//! Preprocessing is infallible by construction: every input graph —
//! disconnected, tiny, bridge-heavy, power-law — yields a usable
//! router. Queries are deterministic: the piece partition, per-piece
//! routing, and `Undeliverable` reports are byte-identical at every
//! thread count.

use crate::router::{Router, RouterConfig};
use crate::token::{
    InstanceError, RouteToken, RoutingInstance, RoutingOutcome, Undeliverable, UndeliverableReason,
};
use congest_sim::{cost, RoundLedger};
use expander_decomp::{decomposition_for_epsilon, BuildError};
use expander_graphs::{metrics, BfsScratch, Graph, Path, PathSet, VertexId};
use std::fmt;

/// Configuration for [`RoutedDecomposition::preprocess`].
#[derive(Debug, Clone)]
pub struct DecomposedConfig {
    /// Per-piece hierarchy/shuffler parameters (also used for the
    /// whole-graph fast path).
    pub router: RouterConfig,
    /// Edge-removal budget ε of the fallback decomposition: at most
    /// this fraction of edges may become inter-piece cut edges.
    pub epsilon_cut: f64,
    /// Seed for the decomposition's sweep cuts.
    pub seed: u64,
}

impl Default for DecomposedConfig {
    fn default() -> Self {
        DecomposedConfig { router: RouterConfig::default(), epsilon_cut: 0.25, seed: 0xDEC0 }
    }
}

impl DecomposedConfig {
    /// A configuration with the given hierarchy ε and defaults
    /// elsewhere.
    pub fn for_epsilon(epsilon: f64) -> Self {
        DecomposedConfig { router: RouterConfig::for_epsilon(epsilon), ..Default::default() }
    }
}

/// Why [`RoutedDecomposition::preprocess`] abandoned the whole-graph
/// fast path and decomposed instead.
#[derive(Debug, Clone, PartialEq)]
pub enum FallbackReason {
    /// The graph fails the conductance certificate: a sweep cut of
    /// conductance below the decomposition's φ exists, so Theorem 1.1's
    /// expander precondition does not hold even if the hierarchy would
    /// build structurally (force-attach absorbs barbells and worse).
    BelowThreshold {
        /// The witnessed sweep-cut conductance.
        cut_phi: f64,
        /// The certificate threshold φ.
        phi: f64,
    },
    /// Hierarchy construction itself refused the graph (disconnected,
    /// too small, coverage or attach failure).
    Build(BuildError),
}

impl fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FallbackReason::BelowThreshold { cut_phi, phi } => {
                write!(f, "sweep cut of conductance {cut_phi:.4} < phi {phi:.4}")
            }
            FallbackReason::Build(e) => write!(f, "hierarchy build failed: {e}"),
        }
    }
}

/// How one piece of the decomposition answers queries.
enum PieceKind {
    /// The piece certified as an expander: full Theorem 1.1 machinery.
    Hierarchical(Box<Router>),
    /// The piece is too small or failed certification even after the
    /// split: deterministic BFS shortest-path routing on the induced
    /// subgraph (correct on any connected piece, just without the
    /// congestion guarantees).
    Direct(Graph),
}

/// One expander piece of a [`RoutedDecomposition`].
pub struct Piece {
    /// Sorted global vertex ids of the piece.
    vertices: Vec<VertexId>,
    kind: PieceKind,
}

impl Piece {
    /// Sorted global vertex ids of the piece.
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertices
    }

    /// Whether this piece routes through a full per-piece hierarchy
    /// (as opposed to the direct BFS fallback).
    pub fn is_hierarchical(&self) -> bool {
        matches!(self.kind, PieceKind::Hierarchical(_))
    }

    /// The piece's router, when hierarchical.
    pub fn router(&self) -> Option<&Router> {
        match &self.kind {
            PieceKind::Hierarchical(r) => Some(r),
            PieceKind::Direct(_) => None,
        }
    }
}

impl fmt::Debug for Piece {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Piece")
            .field("n", &self.vertices.len())
            .field("hierarchical", &self.is_hierarchical())
            .finish()
    }
}

/// A router that works on *any* graph by decomposing it into expander
/// pieces when the whole graph does not certify (see the module docs).
///
/// # Example
///
/// ```
/// use expander_core::{DecomposedConfig, RoutedDecomposition, RoutingInstance};
/// use expander_graphs::generators;
///
/// // A barbell is the canonical non-expander: single-hierarchy
/// // construction refuses it, the decomposition routes it.
/// let g = generators::barbell(48);
/// let rd = RoutedDecomposition::preprocess(&g, DecomposedConfig::default());
/// assert!(rd.is_decomposed());
/// let out = rd.route(&RoutingInstance::permutation(g.n(), 7)).expect("valid");
/// assert!(out.verify(&RoutingInstance::permutation(g.n(), 7)).is_empty());
/// ```
pub struct RoutedDecomposition {
    graph: Graph,
    /// `None`: the whole graph certified (fast path, one piece).
    /// `Some(reason)`: why single-hierarchy routing was abandoned.
    fallback_reason: Option<FallbackReason>,
    /// `cluster_of[v]` = piece index of vertex `v`.
    cluster_of: Vec<u32>,
    /// `local_of[v]` = `v`'s id inside its piece's subgraph.
    local_of: Vec<u32>,
    pieces: Vec<Piece>,
    /// Inter-piece (removed) edges.
    cut_edges: Vec<(VertexId, VertexId)>,
    /// The conductance certificate of the fallback decomposition (0.0
    /// on the fast path: nothing was cut).
    phi: f64,
    pre_ledger: RoundLedger,
}

impl fmt::Debug for RoutedDecomposition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RoutedDecomposition")
            .field("n", &self.graph.n())
            .field("pieces", &self.pieces)
            .field("cut_edges", &self.cut_edges.len())
            .field("fallback_reason", &self.fallback_reason)
            .finish()
    }
}

impl RoutedDecomposition {
    /// Preprocesses any graph. Never fails and never panics: if the
    /// whole graph certifies as an expander this is exactly
    /// [`Router::preprocess`]; otherwise the graph is decomposed and
    /// each piece gets a hierarchy (or the direct fallback).
    pub fn preprocess(graph: &Graph, config: DecomposedConfig) -> RoutedDecomposition {
        let n = graph.n();
        let mut pre_ledger = RoundLedger::new();

        // Fast path: the input certifies as one expander. The
        // conductance certificate is explicit — the hierarchy's
        // force-attach stage absorbs barbells and worse structurally,
        // but Theorem 1.1's congestion guarantees only hold above the
        // φ the decomposition would enforce on its pieces.
        let fallback_reason = if n == 0 {
            FallbackReason::Build(BuildError::TooSmall { n })
        } else if !graph.is_connected() {
            FallbackReason::Build(BuildError::Disconnected)
        } else {
            let logn = (n.max(2) as f64).log2();
            let phi = (config.epsilon_cut / (4.0 * logn)).clamp(1e-6, 0.5);
            let cut_phi =
                if graph.m() == 0 { phi } else { metrics::sweep_cut(graph, config.seed).1 };
            // Charge the certificate's distributed sparse-cut pass at
            // the same rate the decomposition charges per level.
            pre_ledger.charge(
                "decomp/certify",
                cost::diameter_primitive((logn.ceil() as u64 + 1) * (1.0 / phi).ceil() as u64, 2),
            );
            if cut_phi < phi {
                FallbackReason::BelowThreshold { cut_phi, phi }
            } else {
                match Router::preprocess(graph, config.router.clone()) {
                    Ok(router) => {
                        pre_ledger.merge(router.preprocessing_ledger());
                        return RoutedDecomposition {
                            graph: graph.clone(),
                            fallback_reason: None,
                            cluster_of: vec![0; n],
                            local_of: (0..n as u32).collect(),
                            pieces: vec![Piece {
                                vertices: (0..n as u32).collect(),
                                kind: PieceKind::Hierarchical(Box::new(router)),
                            }],
                            cut_edges: Vec::new(),
                            phi: 0.0,
                            pre_ledger,
                        };
                    }
                    Err(e) => FallbackReason::Build(e),
                }
            }
        };

        // Fallback: decompose into expander pieces and preprocess each.
        let (pieces, cluster_of, local_of, cut_edges, phi) = if n == 0 {
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), 0.0)
        } else {
            let decomp = decomposition_for_epsilon(graph, config.epsilon_cut, config.seed);
            pre_ledger.merge(&decomp.ledger);
            let mut pieces = Vec::with_capacity(decomp.len());
            let mut local_of = vec![u32::MAX; n];
            for cluster in &decomp.clusters {
                let (sub, mapping) = graph.induced_subgraph(cluster);
                for (local, &global) in mapping.iter().enumerate() {
                    local_of[global as usize] = local as u32;
                }
                // A piece large enough to certify gets the full
                // hierarchy; refusals (still not expander enough,
                // too small) degrade to direct BFS routing rather
                // than failing the whole preprocess.
                let kind = match Router::preprocess(&sub, config.router.clone()) {
                    Ok(router) => {
                        pre_ledger.merge(router.preprocessing_ledger());
                        PieceKind::Hierarchical(Box::new(router))
                    }
                    Err(_) => PieceKind::Direct(sub),
                };
                pieces.push(Piece { vertices: mapping, kind });
            }
            (pieces, decomp.cluster_of, local_of, decomp.cut_edges, decomp.phi)
        };

        RoutedDecomposition {
            graph: graph.clone(),
            fallback_reason: Some(fallback_reason),
            cluster_of,
            local_of,
            pieces,
            cut_edges,
            phi,
            pre_ledger,
        }
    }

    /// The base graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The expander pieces (one piece covering everything on the fast
    /// path).
    pub fn pieces(&self) -> &[Piece] {
        &self.pieces
    }

    /// Whether the decomposition fallback was taken (as opposed to the
    /// whole graph certifying as one expander).
    pub fn is_decomposed(&self) -> bool {
        self.fallback_reason.is_some()
    }

    /// Why single-hierarchy routing was abandoned (`None` on the fast
    /// path).
    pub fn fallback_reason(&self) -> Option<&FallbackReason> {
        self.fallback_reason.as_ref()
    }

    /// The piece index of a vertex.
    pub fn piece_of(&self, v: VertexId) -> u32 {
        self.cluster_of[v as usize]
    }

    /// The removed inter-piece edges.
    pub fn cut_edges(&self) -> &[(VertexId, VertexId)] {
        &self.cut_edges
    }

    /// The conductance certificate each piece passed (0.0 on the fast
    /// path: nothing was decomposed).
    pub fn phi(&self) -> f64 {
        self.phi
    }

    /// Rounds charged during preprocessing (decomposition plus every
    /// per-piece hierarchy).
    pub fn preprocessing_ledger(&self) -> &RoundLedger {
        &self.pre_ledger
    }

    /// Routes a Task 1 instance piece by piece. Intra-piece tokens are
    /// delivered (through the piece hierarchy or the BFS fallback);
    /// tokens whose endpoints straddle pieces come back as structured
    /// [`Undeliverable`] reports.
    ///
    /// # Errors
    ///
    /// Returns an error if a token references a vertex outside the
    /// graph — that is a malformed *instance*, not a routable
    /// situation.
    pub fn route(&self, inst: &RoutingInstance) -> Result<RoutingOutcome, InstanceError> {
        inst.validate(self.graph.n())?;

        let mut out = RoutingOutcome::at_sources(inst);
        let mut per_piece: Vec<Vec<usize>> = vec![Vec::new(); self.pieces.len()];
        for (i, t) in inst.tokens.iter().enumerate() {
            let (cs, cd) = (self.cluster_of[t.src as usize], self.cluster_of[t.dst as usize]);
            if cs == cd {
                per_piece[cs as usize].push(i);
            } else {
                out.undeliverable.push(Undeliverable {
                    token: i,
                    reason: UndeliverableReason::CrossPiece { src_piece: cs, dst_piece: cd },
                });
            }
        }

        let local = |v: VertexId| self.local_of[v as usize];
        for (piece, idxs) in self.pieces.iter().zip(&per_piece) {
            if idxs.is_empty() {
                continue;
            }
            match &piece.kind {
                PieceKind::Hierarchical(router) => {
                    let tokens = idxs
                        .iter()
                        .map(|&i| inst.tokens[i])
                        .map(|t| RouteToken { src: local(t.src), dst: local(t.dst), ..t })
                        .collect();
                    let routed = router.route(&RoutingInstance { tokens })?;
                    for (k, &i) in idxs.iter().enumerate() {
                        out.positions[i] = piece.vertices[routed.positions[k] as usize];
                    }
                    out.ledger.merge(&routed.ledger);
                    out.stats.absorb(&routed.stats);
                }
                PieceKind::Direct(sub) => {
                    let idxs = idxs.iter().copied();
                    route_by_bfs(sub, local, inst, idxs, &mut out, "query/decomposed/direct");
                }
            }
        }

        out.undeliverable.sort_unstable_by_key(|u| u.token);
        Ok(out)
    }
}

/// Deterministic BFS shortest-path routing of the tokens `idxs` of
/// `inst` on `g`, whose vertex `local(v)` stands for `v`: the shared
/// last-resort engine behind the decomposition's Direct pieces and the
/// churn ladder's charged-BFS rung. Tokens with a path move to their
/// destination in `out`, and their paths are measured
/// (congestion/dilation folded into `out.stats`) and charged to `phase`
/// at the paper's batched `O(congestion + dilation)` rate; the rest are
/// reported as [`UndeliverableReason::NoPath`], in `idxs` order.
pub(crate) fn route_by_bfs(
    g: &Graph,
    local: impl Fn(VertexId) -> VertexId,
    inst: &RoutingInstance,
    idxs: impl IntoIterator<Item = usize>,
    out: &mut RoutingOutcome,
    phase: &'static str,
) {
    let mut paths = PathSet::new();
    let mut scratch = BfsScratch::default();
    let mut walk = Vec::new();
    for i in idxs {
        let t = &inst.tokens[i];
        if g.shortest_path_into(local(t.src), local(t.dst), &mut scratch, &mut walk) {
            paths.push(Path::new(walk.clone()));
            out.positions[i] = t.dst;
        } else {
            out.undeliverable.push(Undeliverable {
                token: i,
                reason: UndeliverableReason::NoPath { src: t.src, dst: t.dst },
            });
        }
    }
    if !paths.is_empty() {
        out.stats.max_congestion = out.stats.max_congestion.max(paths.congestion() as u64);
        out.stats.max_dilation = out.stats.max_dilation.max(paths.dilation() as u64);
        out.ledger.charge(phase, cost::route_once(&paths));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expander_graphs::generators;

    fn config() -> DecomposedConfig {
        DecomposedConfig::for_epsilon(0.4)
    }

    #[test]
    fn expander_takes_the_fast_path() {
        let g = generators::random_regular(128, 4, 3).expect("generator");
        let rd = RoutedDecomposition::preprocess(&g, config());
        assert!(!rd.is_decomposed());
        assert_eq!(rd.pieces().len(), 1);
        assert!(rd.pieces()[0].is_hierarchical());
        let inst = RoutingInstance::permutation(128, 5);
        let out = rd.route(&inst).expect("valid");
        assert!(out.fully_delivered());
        assert!(out.verify(&inst).is_empty());
    }

    #[test]
    fn barbell_decomposes_and_reports_cross_piece() {
        let g = generators::barbell(80); // two 80-cliques, one bridge
        let rd = RoutedDecomposition::preprocess(&g, config());
        assert!(rd.is_decomposed());
        assert!(
            matches!(rd.fallback_reason(), Some(FallbackReason::BelowThreshold { .. })),
            "the bridge is a certificate-failing sweep cut: {:?}",
            rd.fallback_reason()
        );
        assert!(rd.pieces().len() >= 2);
        assert!(!rd.cut_edges().is_empty());
        let inst = RoutingInstance::permutation(g.n(), 11);
        let out = rd.route(&inst).expect("valid");
        assert!(out.verify(&inst).is_empty());
        assert!(!out.undeliverable.is_empty(), "a permutation must cross the bridge");
        for u in &out.undeliverable {
            assert!(matches!(u.reason, UndeliverableReason::CrossPiece { .. }));
        }
        // Intra-clique tokens are all delivered.
        let delivered = out.delivered_count();
        assert!(delivered > 0, "intra-piece traffic routes");
        assert!(out.rounds() > 0);
    }

    #[test]
    fn disconnected_graph_routes_per_component() {
        let g = generators::disconnected_expanders(2, 96, 4, 5).expect("generator");
        let rd = RoutedDecomposition::preprocess(&g, config());
        assert!(rd.is_decomposed());
        assert_eq!(rd.fallback_reason(), Some(&FallbackReason::Build(BuildError::Disconnected)));
        assert_eq!(rd.pieces().len(), 2);
        assert!(rd.pieces().iter().all(Piece::is_hierarchical), "each half certifies");
        // Intra-component permutation delivers fully.
        let intra = RoutingInstance::from_triples(
            &(0..96u32).map(|v| (v, (v + 1) % 96, v as u64)).collect::<Vec<_>>(),
        );
        let out = rd.route(&intra).expect("valid");
        assert!(out.fully_delivered());
        // A cross-component token is undeliverable, not a panic.
        let cross = RoutingInstance::from_triples(&[(0, 100, 0)]);
        let out = rd.route(&cross).expect("valid");
        assert_eq!(out.undeliverable.len(), 1);
        assert_eq!(out.positions[0], 0, "undeliverable token stays at its source");
    }

    #[test]
    fn tiny_graphs_route_directly() {
        let g = generators::ring(8);
        let rd = RoutedDecomposition::preprocess(&g, config());
        assert!(rd.is_decomposed());
        let inst = RoutingInstance::permutation(8, 3);
        let out = rd.route(&inst).expect("valid");
        assert!(out.verify(&inst).is_empty());
        assert!(out.stats.max_dilation <= 4, "ring of 8: BFS paths of at most 4 hops");
    }

    #[test]
    fn empty_graph_and_empty_instance_are_fine() {
        let g = Graph::from_edges(0, &[]);
        let rd = RoutedDecomposition::preprocess(&g, config());
        assert_eq!(rd.pieces().len(), 0);
        let out = rd.route(&RoutingInstance::default()).expect("empty instance");
        assert!(out.fully_delivered());
        assert!(rd.route(&RoutingInstance::from_triples(&[(0, 0, 0)])).is_err());
    }

    #[test]
    fn out_of_range_tokens_are_instance_errors() {
        let g = generators::ring(16);
        let rd = RoutedDecomposition::preprocess(&g, config());
        assert!(rd.route(&RoutingInstance::from_triples(&[(0, 99, 0)])).is_err());
    }
}
