//! The matching player: bounded-congestion path packing.
//!
//! The paper's matching player (Lemma 2.3, Appendix B.2) embeds a
//! matching between a source set `S` and a sink set `T` saturating `S`,
//! as a set of low-congestion low-dilation paths in the host graph. The
//! reference algorithm is the parallel-DFS maximal-path packing of
//! [CS20, GPV93]; we substitute a capacitated multi-source BFS blocking
//! packing (substitution 3 in `docs/ARCHITECTURE.md`) with geometric
//! cap escalation. The achieved congestion/dilation is *measured* and
//! flows into every downstream round charge.
//!
//! Packing is the costly stage of every cut-matching game, so each
//! phase does only the work its outcome depends on:
//!
//! - **Early exit.** The BFS computes depths only, and stops as soon as
//!   it discovers the last live sink (`sink_cap > 0`). That sink was
//!   discovered from one level up, so every shallower vertex already
//!   has its final depth: every vertex a walk can use, and every
//!   candidate parent of one. The set of reached sinks is the full
//!   BFS's too, so the exit changes no outcome.
//! - **Lazy parents.** Before any claim moves a load, parents are
//!   resolved only along the walks up from reached sinks, memoized per
//!   phase, instead of for every discovered vertex.
//! - **Scratch reuse.** The BFS marks, parents, claimed stamps, queue
//!   and reached-sink list live in the [`Packer`], stamped by its phase
//!   counter, so neither a phase nor a call clears or allocates them.

use crate::host::HostGraph;
use expander_graphs::{Embedding, VertexId};

/// Result of one packing call, in host-local indices.
#[derive(Debug, Clone, Default)]
pub struct PackResult {
    /// Extracted paths, each from a source to a sink.
    pub paths: Vec<Vec<u32>>,
    /// Sources that could not be matched under the caps.
    pub unmatched: Vec<u32>,
    /// BFS phases executed (used for round accounting).
    pub phases: u32,
}

/// A vertex's BFS depth, valid in the phase that stamped it.
#[derive(Debug, Clone, Copy, Default)]
struct Mark {
    phase: u32,
    depth: u32,
}

/// A vertex's resolved BFS parent and the edge to it, valid in the
/// phase that stamped it.
#[derive(Debug, Clone, Copy, Default)]
struct Parent {
    phase: u32,
    vertex: u32,
    eid: u32,
}

/// A path packer with congestion state that persists across calls, so
/// several per-part packings within one cut-matching iteration share
/// the host's edge budget (the games run "simultaneously" in the paper).
///
/// The packer also owns every call's BFS scratch, indexed by host-local
/// id and stamped by a phase counter that runs on across calls: a new
/// phase invalidates the last one without a clearing pass.
#[derive(Debug)]
pub struct Packer<'h> {
    host: &'h HostGraph,
    /// Per-edge load, indexed densely by [`HostGraph`] edge id — this
    /// sits in the BFS inner loop, so it must be a flat vector, not a
    /// hash map.
    edge_load: Vec<u32>,
    /// Stamp of the current phase; 0 is never a live stamp.
    phase: u32,
    mark: Vec<Mark>,
    parent: Vec<Parent>,
    /// Phase in which each source was last claimed by a sink.
    claimed: Vec<u32>,
    queue: Vec<u32>,
    reached: Vec<u32>,
}

impl<'h> Packer<'h> {
    /// A packer with no edges loaded.
    pub fn new(host: &'h HostGraph) -> Self {
        let n = host.n();
        Packer {
            host,
            edge_load: vec![0; host.edge_space()],
            phase: 0,
            mark: vec![Mark::default(); n],
            parent: vec![Parent::default(); n],
            claimed: vec![0; n],
            queue: Vec::new(),
            reached: Vec::new(),
        }
    }

    /// Current maximum per-edge load.
    pub fn congestion(&self) -> u32 {
        self.edge_load.iter().copied().max().unwrap_or(0)
    }

    /// Starts a phase: a stamp no scratch entry carries yet.
    fn next_phase(&mut self) -> u32 {
        if self.phase == u32::MAX {
            self.mark.fill(Mark::default());
            self.parent.fill(Parent::default());
            self.claimed.fill(0);
            self.phase = 0;
        }
        self.phase += 1;
        self.phase
    }

    /// Packs one path per source towards any sink with remaining
    /// capacity, under a per-edge congestion cap and a BFS depth cap.
    ///
    /// `sink_cap` is indexed by host-local id and is decremented as
    /// sinks absorb paths; sources must have `sink_cap == 0`.
    ///
    /// Each phase runs a multi-source BFS from the unmatched sources
    /// through edges with residual capacity, resolves parents along the
    /// walks up from the reached sinks, then claims sinks. The BFS stops
    /// at the last live sink, which is exact (see the module docs).
    ///
    /// Every phase's outcome is a pure function of the *passable edge
    /// set* (residual capacity under the caps), never of BFS queue
    /// order: depths are order-free by the BFS property, each vertex's
    /// parent is its minimum-id passable neighbor one level up, and
    /// sinks are claimed in `(depth, id)` order.
    ///
    /// # Panics
    ///
    /// Panics if a source has sink capacity (the sets must be disjoint).
    pub fn pack(
        &mut self,
        sources: &[u32],
        sink_cap: &mut [u32],
        congestion_cap: u32,
        dilation_cap: u32,
    ) -> PackResult {
        assert_eq!(sink_cap.len(), self.host.n(), "sink capacity indexed by host-local id");
        for &s in sources {
            assert_eq!(sink_cap[s as usize], 0, "source {s} doubles as sink");
        }
        let mut result = PackResult::default();
        let mut remaining: Vec<u32> = sources.to_vec();
        let mut live = sink_cap.iter().filter(|&&c| c > 0).count();

        while !remaining.is_empty() {
            result.phases += 1;
            let phase = self.next_phase();
            let Packer { host, edge_load, mark, parent, claimed, queue, reached, .. } = self;
            // Multi-source BFS through edges with residual capacity,
            // depths only, until every live sink is discovered. Depth-0
            // vertices are exactly this phase's sources.
            queue.clear();
            reached.clear();
            for &s in &remaining {
                mark[s as usize] = Mark { phase, depth: 0 };
                queue.push(s);
            }
            let mut head = 0;
            while head < queue.len() && reached.len() < live {
                let u = queue[head];
                head += 1;
                let du = mark[u as usize].depth;
                if du >= dilation_cap {
                    // The queue is in depth order: nothing left expands.
                    break;
                }
                let nbrs = host.neighbors_local(u);
                let eids = host.neighbor_eids_local(u);
                for (&v, &eid) in nbrs.iter().zip(eids) {
                    if mark[v as usize].phase == phase || edge_load[eid as usize] >= congestion_cap
                    {
                        continue;
                    }
                    mark[v as usize] = Mark { phase, depth: du + 1 };
                    if sink_cap[v as usize] > 0 {
                        reached.push(v);
                    }
                    queue.push(v);
                }
            }
            // Resolve parents up every reached sink's walk, at the
            // phase-start loads: each vertex's parent is the minimum
            // (neighbor id, edge id) among passable neighbors one level
            // up — a function of depths and loads only.
            for &sink in reached.iter() {
                let mut v = sink;
                while mark[v as usize].depth > 0 && parent[v as usize].phase != phase {
                    let dv = mark[v as usize].depth;
                    let nbrs = host.neighbors_local(v);
                    let eids = host.neighbor_eids_local(v);
                    let mut best: Option<(u32, u32)> = None;
                    for (&u, &eid) in nbrs.iter().zip(eids) {
                        if mark[u as usize].phase == phase
                            && mark[u as usize].depth + 1 == dv
                            && edge_load[eid as usize] < congestion_cap
                            && best.is_none_or(|b| (u, eid) < b)
                        {
                            best = Some((u, eid));
                        }
                    }
                    // `v` entered the BFS frontier through a passable
                    // edge from depth `dv - 1`, and no load has moved
                    // since, so at least that parent still qualifies.
                    let (pu, peid) = best.expect("discovered vertex has a passable parent");
                    parent[v as usize] = Parent { phase, vertex: pu, eid: peid };
                    v = pu;
                }
            }
            // Claim sinks greedily, shortest-first with id tie-break —
            // again independent of discovery order.
            reached.sort_unstable_by_key(|&v| (mark[v as usize].depth, v));
            let mut progress = false;
            for &sink in reached.iter() {
                // Walk back to the root source, checking residuals that
                // earlier claims in this phase may have consumed.
                let mut walk = vec![sink];
                let mut cur = sink;
                let mut ok = true;
                while mark[cur as usize].depth > 0 {
                    let p = parent[cur as usize];
                    if edge_load[p.eid as usize] >= congestion_cap {
                        ok = false;
                        break;
                    }
                    walk.push(p.vertex);
                    cur = p.vertex;
                }
                if !ok || claimed[cur as usize] == phase {
                    continue;
                }
                claimed[cur as usize] = phase;
                // Every walk vertex but the source leaves by the edge to
                // its parent.
                for &step in &walk[..walk.len() - 1] {
                    edge_load[parent[step as usize].eid as usize] += 1;
                }
                sink_cap[sink as usize] -= 1;
                if sink_cap[sink as usize] == 0 {
                    live -= 1;
                }
                walk.reverse(); // source .. sink
                result.paths.push(walk);
                progress = true;
            }
            // Drop every source claimed this phase in one pass (the
            // per-claim `retain` was quadratic in the source count).
            remaining.retain(|&s| claimed[s as usize] != phase);
            if !progress {
                break;
            }
        }
        result.unmatched = remaining;
        result
    }
}

/// A matching of global-id sources to sinks together with its embedding.
#[derive(Debug, Clone, Default)]
pub struct MatchingPacking {
    /// `(source, sink)` pairs in global ids.
    pub pairs: Vec<(VertexId, VertexId)>,
    /// Paths realizing the pairs (global ids, valid in the host).
    pub embedding: Embedding,
    /// Sources left unmatched after all escalations.
    pub unmatched: Vec<VertexId>,
    /// Total BFS phases across all escalations.
    pub phases: u32,
    /// The congestion cap in force when packing finished.
    pub final_congestion_cap: u32,
    /// The dilation cap in force when packing finished.
    pub final_dilation_cap: u32,
    /// Maximum per-edge load in the packer when this packing finished.
    /// With a fresh [`Packer`] this is exactly the embedding's measured
    /// congestion; with a shared packer it upper-bounds it.
    pub host_congestion: u32,
    /// Maximum path length (hops) of the embedding — its dilation.
    pub dilation: u32,
}

/// Escalation policy for [`pack_matching`]: caps double until the
/// sources saturate or the budget runs out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EscalationConfig {
    /// Starting per-edge congestion cap.
    pub congestion_cap: u32,
    /// Starting BFS depth cap.
    pub dilation_cap: u32,
    /// Number of doublings allowed.
    pub max_escalations: u32,
}

impl Default for EscalationConfig {
    fn default() -> Self {
        EscalationConfig { congestion_cap: 4, dilation_cap: 16, max_escalations: 6 }
    }
}

/// Embeds a matching between `sources` and `sinks` (global ids, each
/// sink used at most `sink_multiplicity` times) saturating the sources
/// if the escalation budget allows — the Lemma 2.3 interface.
pub fn pack_matching(
    host: &HostGraph,
    sources: &[VertexId],
    sinks: &[VertexId],
    sink_multiplicity: u32,
    cfg: EscalationConfig,
) -> MatchingPacking {
    let mut packer = Packer::new(host);
    let mut sink_cap = vec![0u32; host.n()];
    for &t in sinks {
        sink_cap[host.to_local(t) as usize] = sink_multiplicity;
    }
    let local_sources: Vec<u32> = sources.iter().map(|&s| host.to_local(s)).collect();
    pack_matching_with(&mut packer, &local_sources, &mut sink_cap, cfg)
}

/// Like [`pack_matching`] but with caller-managed shared congestion
/// state and sink capacities (local ids), used when several packings
/// must share the host's bandwidth.
pub fn pack_matching_with(
    packer: &mut Packer<'_>,
    local_sources: &[u32],
    sink_cap: &mut [u32],
    cfg: EscalationConfig,
) -> MatchingPacking {
    let host = packer.host;
    let mut out = MatchingPacking::default();
    let mut remaining: Vec<u32> = local_sources.to_vec();
    let mut c_cap = cfg.congestion_cap.max(1);
    let mut d_cap = cfg.dilation_cap.max(2);
    for escalation in 0..=cfg.max_escalations {
        if remaining.is_empty() {
            break;
        }
        let r = packer.pack(&remaining, sink_cap, c_cap, d_cap);
        out.phases += r.phases;
        for p in r.paths {
            out.dilation = out.dilation.max(p.len() as u32 - 1);
            let path = host.path_to_global(&p);
            let (src, dst) = (path.source(), path.target());
            out.pairs.push((src, dst));
            out.embedding.push(src, dst, path);
        }
        remaining = r.unmatched;
        if escalation < cfg.max_escalations {
            c_cap *= 2;
            d_cap *= 2;
        }
    }
    out.unmatched = remaining.iter().map(|&l| host.to_global(l)).collect();
    out.final_congestion_cap = c_cap;
    out.final_dilation_cap = d_cap;
    out.host_congestion = packer.congestion();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use expander_graphs::generators;

    fn host_of(g: &expander_graphs::Graph) -> HostGraph {
        HostGraph::from_graph(g)
    }

    #[test]
    fn saturates_sources_on_expander() {
        let g = generators::random_regular(128, 4, 3).unwrap();
        let host = host_of(&g);
        let sources: Vec<u32> = (0..32).collect();
        let sinks: Vec<u32> = (64..128).collect();
        let m = pack_matching(&host, &sources, &sinks, 1, EscalationConfig::default());
        assert!(m.unmatched.is_empty(), "unmatched: {:?}", m.unmatched);
        assert_eq!(m.pairs.len(), 32);
        // Each path really connects its pair inside the host.
        for (i, &(s, t)) in m.pairs.iter().enumerate() {
            let p = m.embedding.path(i);
            assert_eq!(p.source(), s);
            assert_eq!(p.target(), t);
            assert!(p.is_valid_in(&g));
            assert!(sources.contains(&s));
            assert!(sinks.contains(&t));
        }
        // A matching: every sink used at most once.
        let mut used: Vec<u32> = m.pairs.iter().map(|&(_, t)| t).collect();
        used.sort_unstable();
        let before = used.len();
        used.dedup();
        assert_eq!(before, used.len(), "sink used twice");
    }

    #[test]
    fn measured_congestion_and_dilation_match_the_embedding() {
        let g = generators::random_regular(128, 4, 9).unwrap();
        let host = host_of(&g);
        let sources: Vec<u32> = (0..48).collect();
        let sinks: Vec<u32> = (64..128).collect();
        let m = pack_matching(&host, &sources, &sinks, 1, EscalationConfig::default());
        let ps = m.embedding.to_path_set();
        assert_eq!(m.host_congestion as usize, ps.congestion());
        assert_eq!(m.dilation as usize, ps.dilation());
    }

    #[test]
    fn respects_congestion_cap_without_escalation() {
        let g = generators::ring(16);
        let host = host_of(&g);
        // All sources on one side must cross the two ring "bridges";
        // with cap 1 and no escalation only ~2 can match.
        let mut packer = Packer::new(&host);
        let mut sink_cap = vec![0u32; host.n()];
        for t in 8..12u32 {
            sink_cap[host.to_local(t) as usize] = 1;
        }
        let sources: Vec<u32> = (0..4).map(|s| host.to_local(s)).collect();
        let cfg = EscalationConfig { congestion_cap: 1, dilation_cap: 16, max_escalations: 0 };
        let m = pack_matching_with(&mut packer, &sources, &mut sink_cap, cfg);
        assert!(packer.congestion() <= 1);
        assert!(m.pairs.len() <= 2, "ring admits only 2 edge-disjoint crossings");
    }

    #[test]
    fn escalation_eventually_saturates() {
        let g = generators::ring(16);
        let host = host_of(&g);
        let sources: Vec<u32> = (0..4).collect();
        let sinks: Vec<u32> = (8..12).collect();
        let cfg = EscalationConfig { congestion_cap: 1, dilation_cap: 16, max_escalations: 4 };
        let m = pack_matching(&host, &sources, &sinks, 1, cfg);
        assert!(m.unmatched.is_empty());
    }

    #[test]
    fn dilation_cap_limits_reach() {
        let g = generators::path(10);
        let host = host_of(&g);
        let cfg = EscalationConfig { congestion_cap: 8, dilation_cap: 3, max_escalations: 0 };
        let m = pack_matching(&host, &[0], &[9], 1, cfg);
        assert_eq!(m.pairs.len(), 0, "sink is 9 hops away, cap is 3");
        assert_eq!(m.unmatched, vec![0]);
    }

    #[test]
    fn sink_multiplicity_allows_many_to_one() {
        let g = generators::complete(8);
        let host = host_of(&g);
        let m = pack_matching(&host, &[0, 1, 2], &[7], 3, EscalationConfig::default());
        assert!(m.unmatched.is_empty());
        assert!(m.pairs.iter().all(|&(_, t)| t == 7));
    }

    #[test]
    fn shared_packer_accumulates_congestion() {
        let g = generators::ring(12);
        let host = host_of(&g);
        let mut packer = Packer::new(&host);
        let cfg = EscalationConfig { congestion_cap: 2, dilation_cap: 12, max_escalations: 0 };
        let mut cap1 = vec![0u32; host.n()];
        cap1[host.to_local(6) as usize] = 1;
        let m1 = pack_matching_with(&mut packer, &[host.to_local(0)], &mut cap1, cfg);
        assert_eq!(m1.pairs.len(), 1);
        let c_after_first = packer.congestion();
        assert!(c_after_first >= 1);
        let mut cap2 = vec![0u32; host.n()];
        cap2[host.to_local(7) as usize] = 1;
        let m2 = pack_matching_with(&mut packer, &[host.to_local(1)], &mut cap2, cfg);
        assert_eq!(m2.pairs.len(), 1);
        assert!(packer.congestion() <= 2, "shared cap respected");
    }
}
