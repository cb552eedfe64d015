//! `Packer::pack` against the two-pass packer it replaced.
//!
//! The oracle runs every phase's BFS to the end, resolves the parent of
//! every discovered vertex, then claims sinks, on its own load vector.
//! `Packer::pack` stops its BFS at the last live sink and resolves
//! parents only along sink walks, so both must pack the same paths.
//! Each sequence shares one packer between its calls, as a game's parts
//! do, and doubles the caps after every call as `pack_matching_with`
//! does. After every call the paths, unmatched sources and phase counts
//! must agree, then the sink capacities and the congestion.

use expander_decomp::packing::PackResult;
use expander_decomp::{EscalationConfig, HostGraph, Packer};
use expander_graphs::{generators, Graph};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// What the oracle met, so each case can check it covers its subject.
#[derive(Debug, Default, Clone, Copy)]
struct Coverage {
    /// Phases that reached every live sink, where the early exit fires.
    exits: u32,
    /// Phases that left a live sink unreached, where it cannot fire.
    full_sweeps: u32,
    /// Walks blocked by capacity an earlier claim of their phase took.
    blocked: u32,
}

impl Coverage {
    fn add(&mut self, other: Coverage) {
        self.exits += other.exits;
        self.full_sweeps += other.full_sweeps;
        self.blocked += other.blocked;
    }
}

/// The two-pass packer: a depth pass over everything the caps let the
/// BFS reach, then a parent pass over every discovered vertex, then
/// the claims.
struct Oracle<'h> {
    graph: &'h Graph,
    edge_load: Vec<u32>,
    seen: Coverage,
}

impl<'h> Oracle<'h> {
    fn new(host: &'h HostGraph) -> Self {
        let graph = host.graph();
        Oracle { graph, edge_load: vec![0; graph.edge_id_count()], seen: Coverage::default() }
    }

    fn congestion(&self) -> u32 {
        self.edge_load.iter().copied().max().unwrap_or(0)
    }

    fn pack(
        &mut self,
        sources: &[u32],
        sink_cap: &mut [u32],
        congestion_cap: u32,
        dilation_cap: u32,
    ) -> PackResult {
        let n = self.graph.n();
        let mut result = PackResult::default();
        let mut remaining: Vec<u32> = sources.to_vec();
        let mut seen = vec![0u32; n];
        let mut claimed = vec![0u32; n];
        let mut parent = vec![u32::MAX; n];
        let mut parent_eid = vec![u32::MAX; n];
        let mut depth = vec![u32::MAX; n];
        let mut is_source = vec![false; n];
        let mut queue: Vec<u32> = Vec::new();
        let mut reached_sinks: Vec<u32> = Vec::new();

        while !remaining.is_empty() {
            result.phases += 1;
            let phase = result.phases;
            queue.clear();
            reached_sinks.clear();
            for &s in &remaining {
                seen[s as usize] = phase;
                depth[s as usize] = 0;
                is_source[s as usize] = true;
                queue.push(s);
            }
            let mut head = 0;
            while head < queue.len() {
                let u = queue[head];
                head += 1;
                let du = depth[u as usize];
                if du >= dilation_cap {
                    continue;
                }
                let nbrs = self.graph.neighbors(u);
                let eids = self.graph.neighbor_edge_ids(u);
                for (&v, &eid) in nbrs.iter().zip(eids) {
                    if seen[v as usize] == phase || self.edge_load[eid as usize] >= congestion_cap {
                        continue;
                    }
                    seen[v as usize] = phase;
                    depth[v as usize] = du + 1;
                    is_source[v as usize] = false;
                    if sink_cap[v as usize] > 0 {
                        reached_sinks.push(v);
                    }
                    queue.push(v);
                }
            }
            let live = sink_cap.iter().filter(|&&c| c > 0).count();
            if reached_sinks.len() == live {
                self.seen.exits += 1;
            } else {
                self.seen.full_sweeps += 1;
            }
            for &v in &queue {
                if is_source[v as usize] {
                    parent[v as usize] = v;
                    continue;
                }
                let dv = depth[v as usize];
                let nbrs = self.graph.neighbors(v);
                let eids = self.graph.neighbor_edge_ids(v);
                let mut best: Option<(u32, u32)> = None;
                for (&u, &eid) in nbrs.iter().zip(eids) {
                    if seen[u as usize] == phase
                        && depth[u as usize] + 1 == dv
                        && self.edge_load[eid as usize] < congestion_cap
                        && best.is_none_or(|b| (u, eid) < b)
                    {
                        best = Some((u, eid));
                    }
                }
                let (pu, peid) = best.expect("discovered vertex has a passable parent");
                parent[v as usize] = pu;
                parent_eid[v as usize] = peid;
            }
            reached_sinks.sort_unstable_by_key(|&v| (depth[v as usize], v));
            let mut progress = false;
            for &sink in &reached_sinks {
                if sink_cap[sink as usize] == 0 {
                    continue;
                }
                let mut walk = vec![sink];
                let mut ok = true;
                let mut cur = sink;
                while !is_source[cur as usize] {
                    if self.edge_load[parent_eid[cur as usize] as usize] >= congestion_cap {
                        ok = false;
                        break;
                    }
                    walk.push(parent[cur as usize]);
                    cur = parent[cur as usize];
                }
                if !ok {
                    self.seen.blocked += 1;
                }
                if !ok || claimed[cur as usize] == phase {
                    continue;
                }
                claimed[cur as usize] = phase;
                walk.reverse();
                for &step in &walk[1..] {
                    self.edge_load[parent_eid[step as usize] as usize] += 1;
                }
                sink_cap[sink as usize] -= 1;
                result.paths.push(walk);
                progress = true;
            }
            remaining.retain(|&s| claimed[s as usize] != phase);
            if !progress {
                break;
            }
        }
        result.unmatched = remaining;
        result
    }
}

fn assert_same(got: &PackResult, want: &PackResult, at: &str) {
    assert_eq!(got.paths, want.paths, "paths at {at}");
    assert_eq!(got.unmatched, want.unmatched, "unmatched sources at {at}");
    assert_eq!(got.phases, want.phases, "phases at {at}");
}

/// Packs `sources` on both packers with the caps doubling after every
/// call, as `pack_matching_with` escalates, and compares them after
/// every call. Returns the sources left unmatched.
fn escalate(
    packer: &mut Packer<'_>,
    oracle: &mut Oracle<'_>,
    sources: &[u32],
    sink_cap: &mut [u32],
    cfg: EscalationConfig,
) -> Vec<u32> {
    let mut oracle_cap = sink_cap.to_vec();
    let mut remaining = sources.to_vec();
    let (mut c_cap, mut d_cap) = (cfg.congestion_cap.max(1), cfg.dilation_cap.max(2));
    for escalation in 0..=cfg.max_escalations {
        if remaining.is_empty() {
            break;
        }
        let got = packer.pack(&remaining, sink_cap, c_cap, d_cap);
        let want = oracle.pack(&remaining, &mut oracle_cap, c_cap, d_cap);
        let at = format!("escalation {escalation}, caps ({c_cap}, {d_cap})");
        assert_same(&got, &want, &at);
        assert_eq!(sink_cap, &oracle_cap[..], "sink capacities at {at}");
        assert_eq!(packer.congestion(), oracle.congestion(), "congestion at {at}");
        remaining = got.unmatched;
        if escalation < cfg.max_escalations {
            c_cap *= 2;
            d_cap *= 2;
        }
    }
    remaining
}

/// The root game's escalation: the default caps, with the dilation cap
/// raised to `2·diam + 2` of the host.
fn game_config(host: &HostGraph, congestion_cap: u32) -> EscalationConfig {
    let cfg = EscalationConfig::default();
    let dilation_cap = cfg.dilation_cap.max(2 * host.graph().diameter_estimate() + 2);
    EscalationConfig { congestion_cap, dilation_cap, ..cfg }
}

/// Plays `iterations` rounds over `parts` id-chunked parts of the host,
/// like a cut-matching game. Each round one packer serves every part in
/// rotated order. A part's active set splits into seeded source and
/// sink halves, and its unmatched sources leave the active set.
fn play_game(
    host: &HostGraph,
    parts: usize,
    iterations: u32,
    cfg: EscalationConfig,
    seed: u64,
) -> Coverage {
    let n = host.graph().n();
    let locals: Vec<u32> = (0..n as u32).collect();
    let mut active: Vec<Vec<u32>> = locals.chunks(n.div_ceil(parts)).map(<[u32]>::to_vec).collect();
    let t = active.len();
    let mut seen = Coverage::default();
    for iter in 0..iterations {
        let mut packer = Packer::new(host);
        let mut oracle = Oracle::new(host);
        for raw in 0..t {
            let pi = (raw + iter as usize) % t;
            if active[pi].len() < 4 {
                continue;
            }
            let mut order = active[pi].clone();
            let part_seed = seed ^ (u64::from(iter) << 32) ^ pi as u64;
            order.shuffle(&mut StdRng::seed_from_u64(part_seed));
            let (sources, sinks) = order.split_at(order.len() / 2);
            let mut sink_cap = vec![0u32; n];
            for &s in sinks {
                sink_cap[s as usize] = 1;
            }
            let mut unmatched = escalate(&mut packer, &mut oracle, sources, &mut sink_cap, cfg);
            unmatched.sort_unstable();
            active[pi].retain(|v| unmatched.binary_search(v).is_err());
        }
        seen.add(oracle.seen);
    }
    seen
}

/// A level-1 style host: `k` random perfect matchings over every third
/// id of `3n`, unioned, so pairs repeat and share one edge id.
fn matching_union(n: usize, k: usize, seed: u64) -> HostGraph {
    let vertices: Vec<u32> = (0..n as u32).map(|i| 3 * i).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for _ in 0..k {
        let mut order = vertices.clone();
        order.shuffle(&mut rng);
        edges.extend(order.chunks_exact(2).map(|c| (c[0], c[1])));
    }
    HostGraph::from_edges(3 * n, vertices, &edges)
}

/// Runs one escalating sequence on a fresh packer pair.
fn sequence(
    host: &HostGraph,
    sources: &[u32],
    sink_cap: &mut [u32],
    cfg: EscalationConfig,
) -> (Vec<u32>, Coverage) {
    let mut packer = Packer::new(host);
    let mut oracle = Oracle::new(host);
    let unmatched = escalate(&mut packer, &mut oracle, sources, sink_cap, cfg);
    (unmatched, oracle.seen)
}

#[test]
fn random_regular_games_match_the_oracle() {
    for n in [256, 1024] {
        let g = generators::random_regular(n, 4, 3).expect("generator");
        let host = HostGraph::from_graph(&g);
        let parts = (n as f64).powf(0.4).ceil() as usize;
        for congestion_cap in [4, 1] {
            let seen = play_game(&host, parts, 6, game_config(&host, congestion_cap), n as u64);
            assert!(seen.exits > 0, "n = {n}, cap {congestion_cap}: the early exit never fired");
            if congestion_cap == 1 {
                assert!(seen.blocked > 0, "n = {n}: no walk was blocked");
            }
        }
    }
}

/// Level-1 games play inside virtual graphs that are unions of
/// matchings, whose repeated pairs put parallel slots on one edge id.
#[test]
fn repeated_pair_hosts_match_the_oracle() {
    for (n, k, seed) in [(200, 12, 1), (228, 20, 2)] {
        let host = matching_union(n, k, seed);
        let graph = host.graph();
        assert!(graph.m() > graph.edge_id_count(), "n = {n}: no repeated pair");
        let seen = play_game(&host, 37, 6, game_config(&host, 4), seed);
        assert!(seen.exits > 0, "n = {n}: the early exit never fired");
        let seen = play_game(&host, 8, 4, game_config(&host, 1), seed);
        assert!(seen.blocked > 0, "n = {n}: no walk was blocked");
    }
}

#[test]
fn congestion_cap_one_blocks_walks_mid_phase() {
    let host = HostGraph::from_graph(&generators::ring(32));
    let sources: Vec<u32> = (0..9).collect();
    let mut sink_cap = vec![0u32; 32];
    sink_cap[16..25].fill(1);
    let cfg = EscalationConfig { congestion_cap: 1, dilation_cap: 32, max_escalations: 3 };
    let (_, seen) = sequence(&host, &sources, &mut sink_cap, cfg);
    assert!(seen.blocked > 0, "no walk was blocked");
}

#[test]
fn sinks_beyond_the_dilation_cap_never_exit_early() {
    let host = HostGraph::from_graph(&generators::path(40));
    let mut sink_cap = vec![0u32; 40];
    for t in [5, 30, 35] {
        sink_cap[t] = 1;
    }
    // Dilation caps 4, 8, 16 and 32: sink 35 is 33 hops from the
    // nearest source, so no phase reaches every live sink.
    let cfg = EscalationConfig { congestion_cap: 8, dilation_cap: 4, max_escalations: 3 };
    let (unmatched, seen) = sequence(&host, &[0, 1, 2], &mut sink_cap, cfg);
    assert_eq!(seen.exits, 0, "the early exit fired");
    assert!(seen.full_sweeps > 0);
    assert_eq!(unmatched, vec![0], "sinks 5 and 30 match, 35 stays out of reach");
}

#[test]
fn sink_with_multiplicity_absorbs_many_paths() {
    let host = HostGraph::from_graph(&generators::ring(24));
    let sources: Vec<u32> = (0..6).collect();
    let mut sink_cap = vec![0u32; 24];
    sink_cap[12] = 4;
    sink_cap[18] = 1;
    let mut packer = Packer::new(&host);
    let mut oracle = Oracle::new(&host);
    let cfg = EscalationConfig { congestion_cap: 2, dilation_cap: 24, max_escalations: 2 };
    escalate(&mut packer, &mut oracle, &sources, &mut sink_cap, cfg);
    assert!(4 - sink_cap[12] >= 2, "sink 12 absorbed {} paths", 4 - sink_cap[12]);
}

#[test]
fn calls_without_a_live_sink_match_the_oracle() {
    let host = HostGraph::from_graph(&generators::ring(12));
    let mut packer = Packer::new(&host);
    let mut oracle = Oracle::new(&host);
    // The one sink takes one source; every escalation after that packs
    // with no live sink.
    let mut sink_cap = vec![0u32; 12];
    sink_cap[6] = 1;
    let cfg = EscalationConfig { congestion_cap: 1, dilation_cap: 12, max_escalations: 2 };
    let unmatched = escalate(&mut packer, &mut oracle, &[0, 1, 2], &mut sink_cap, cfg);
    assert_eq!(unmatched.len(), 2);
    assert!(sink_cap.iter().all(|&c| c == 0));
    let got = packer.pack(&[3, 4], &mut sink_cap, 1, 12);
    let want = oracle.pack(&[3, 4], &mut sink_cap, 1, 12);
    assert_same(&got, &want, "the call after the sink filled");
    assert!(got.paths.is_empty());
    assert_eq!(got.unmatched, vec![3, 4]);
    assert_eq!(got.phases, 1);
}

/// Both root games of the benchmark: graph seed 1, n = 4096 in 28
/// parts over 18 iterations and n = 8192 in 37 parts over 20. Release
/// only (`cargo test --release --test packing_oracle -- --ignored`).
#[test]
#[ignore = "release-only: the oracle packs the benchmark's root games"]
fn benchmark_root_shapes_match_the_oracle() {
    for (n, parts, iterations) in [(4096, 28, 18), (8192, 37, 20)] {
        let g = generators::random_regular(n, 4, 1).expect("generator");
        let host = HostGraph::from_graph(&g);
        let cfg = EscalationConfig {
            dilation_cap: 2 * host.graph().diameter_estimate() + 2,
            ..EscalationConfig::default()
        };
        let seen = play_game(&host, parts, iterations, cfg, n as u64);
        assert!(seen.exits > 0, "n = {n}: the early exit never fired");
    }
}
