//! The ESC network proper: stage enables, faults, routing, circuit switching.

use crate::fault::NetFault;
use crate::topology::{box_index, box_port, Stage};
use std::collections::HashMap;
use std::fmt;

/// Handle to an established circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CircuitId(pub u32);

/// Setting of a 2×2 interchange box used by a circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoxMode {
    /// Upper→upper, lower→lower.
    Straight,
    /// Upper→lower, lower→upper.
    Exchange,
}

/// One box traversal of a routed path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// Stage position (0 = extra stage).
    pub stage: u32,
    /// Box index within the stage.
    pub box_idx: usize,
    /// Input port used (0 = upper, 1 = lower).
    pub port: usize,
    /// Box setting this traversal requires.
    pub mode: BoxMode,
}

/// A fully routed source→destination path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    pub src: usize,
    pub dst: usize,
    /// Whether the path exchanges in the extra stage (the "alternate" route).
    pub via_extra: bool,
    pub hops: Vec<Hop>,
    /// Line trajectory: `lines[b]` is the line entering stage position `b`
    /// (even across bypassed stages, whose inter-stage links are still
    /// traversed); `lines[m + 1]` is the destination.
    pub lines: Vec<usize>,
}

/// Routing/establishment failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Source or destination out of range.
    BadEndpoint(usize),
    /// No fault-free, conflict-free route exists under the current configuration.
    Unroutable { src: usize, dst: usize },
    /// The route exists but a box is held in a conflicting mode by another circuit.
    Blocked { src: usize, dst: usize },
    /// Unknown circuit id passed to release.
    NoSuchCircuit(CircuitId),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::BadEndpoint(e) => write!(f, "endpoint {e} out of range"),
            NetError::Unroutable { src, dst } => write!(f, "no route {src} -> {dst}"),
            NetError::Blocked { src, dst } => write!(f, "route {src} -> {dst} blocked"),
            NetError::NoSuchCircuit(c) => write!(f, "no such circuit {c:?}"),
        }
    }
}

impl std::error::Error for NetError {}

/// Occupancy of one interchange box by established circuits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct BoxState {
    /// Mode the box is latched in while any circuit holds it.
    mode: Option<BoxMode>,
    /// Which input ports are in use.
    port_used: [bool; 2],
    /// Hard fault: the box can carry no circuit.
    faulty: bool,
}

/// The Extra-Stage Cube network for N = 2^m endpoints.
///
/// In the fault-free default configuration the extra stage is bypassed and the
/// output stage enabled, making the network a plain Generalized Cube. Enabling
/// both cube₀ stages yields two box-disjoint route choices per pair, which is
/// how single interior faults are tolerated.
#[derive(Debug, Clone)]
pub struct EscNetwork {
    n: usize,
    m: u32,
    extra_enabled: bool,
    output_enabled: bool,
    /// `boxes[stage_position][box_index]`.
    boxes: Vec<Vec<BoxState>>,
    /// `link_faulty[boundary][line]`; only boundaries `1..=m` (the
    /// inter-stage bundles) are settable — PE-attached links are untolerable.
    link_faulty: Vec<Vec<bool>>,
    circuits: HashMap<CircuitId, Path>,
    next_id: u32,
}

impl EscNetwork {
    /// Build a fault-free network for `n` endpoints (`n` must be a power of two ≥ 2).
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n >= 2,
            "ESC size must be a power of two >= 2, got {n}"
        );
        let m = n.trailing_zeros();
        let boxes = (0..=m).map(|_| vec![BoxState::default(); n / 2]).collect();
        let link_faulty = (0..=m + 1).map(|_| vec![false; n]).collect();
        EscNetwork {
            n,
            m,
            extra_enabled: false,
            output_enabled: true,
            boxes,
            link_faulty,
            circuits: HashMap::new(),
            next_id: 0,
        }
    }

    /// Number of endpoints.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Number of stages (m + 1, counting the extra stage).
    pub fn stages(&self) -> usize {
        self.m as usize + 1
    }

    /// Enable/disable the extra (input cube₀) stage.
    pub fn set_extra_enabled(&mut self, on: bool) {
        assert!(
            self.circuits.is_empty(),
            "reconfigure only with no circuits up"
        );
        self.extra_enabled = on;
    }

    /// Whether the extra stage is in the data path.
    pub fn extra_enabled(&self) -> bool {
        self.extra_enabled
    }

    /// Whether the output cube₀ stage is in the data path.
    pub fn output_enabled(&self) -> bool {
        self.output_enabled
    }

    /// Mark a box faulty (or repaired). Stage position 0 is the extra stage.
    pub fn set_fault(&mut self, stage: u32, box_idx: usize, faulty: bool) {
        self.boxes[stage as usize][box_idx].faulty = faulty;
    }

    /// Mark an inter-stage link faulty (or repaired). `boundary` names the
    /// bundle feeding stage position `boundary`; only `1..=m` is legal — the
    /// PE-attached input/output links are single points no network survives.
    pub fn set_link_fault(&mut self, boundary: u32, line: usize, faulty: bool) {
        assert!(
            boundary >= 1 && boundary <= self.m,
            "link boundary must be in 1..={}, got {boundary}",
            self.m
        );
        assert!(line < self.n, "link line {line} out of range 0..{}", self.n);
        self.link_faulty[boundary as usize][line] = faulty;
    }

    /// Inject a fault described by a [`NetFault`].
    pub fn inject(&mut self, fault: NetFault) {
        match fault {
            NetFault::Box { stage, box_idx } => self.set_fault(stage, box_idx, true),
            NetFault::Link { boundary, line } => self.set_link_fault(boundary, line, true),
        }
    }

    /// Inject every fault in the set, then [`Self::reconfigure_for_faults`].
    /// The canonical way to bring up a degraded network.
    pub fn apply_faults(&mut self, faults: &[NetFault]) {
        for &f in faults {
            self.inject(f);
        }
        self.reconfigure_for_faults();
    }

    /// Reconfigure the bypass stages for the current fault set, per the ESC
    /// fault-tolerance rules:
    ///
    /// * fault-free → extra stage bypassed, output stage enabled (plain cube);
    /// * fault only in the extra stage → same (the bypass hides it);
    /// * fault in the output stage → extra stage enabled, output bypassed;
    /// * fault in an interior stage, or any **link** fault → both cube₀
    ///   stages enabled, so routing can pick whichever of the two paths
    ///   avoids the faulty element (the two paths differ in address bit 0 at
    ///   every interior boundary, so they never share an interior link).
    ///
    /// Panics if circuits are established (reconfiguration drops the data path).
    pub fn reconfigure_for_faults(&mut self) {
        assert!(
            self.circuits.is_empty(),
            "reconfigure only with no circuits up"
        );
        let extra_fault = self.boxes[0].iter().any(|b| b.faulty);
        let output_fault = self.boxes[self.m as usize].iter().any(|b| b.faulty);
        let interior_fault = (1..self.m as usize).any(|s| self.boxes[s].iter().any(|b| b.faulty));
        let link_fault = self.link_faulty.iter().flatten().any(|&f| f);
        if interior_fault || link_fault {
            self.extra_enabled = true;
            self.output_enabled = true;
        } else if output_fault {
            self.extra_enabled = true;
            self.output_enabled = false;
        } else {
            // Fault-free, or faults confined to the (bypassed) extra stage.
            self.extra_enabled = false;
            self.output_enabled = true;
        }
        let _ = extra_fault; // documented case: bypass already hides it
    }

    /// Compute the path for `src → dst`, optionally exchanging in the extra
    /// stage. Returns `None` if the configuration cannot realize the route
    /// (e.g. needs a bit-0 fix but the output stage is bypassed).
    pub fn route(&self, src: usize, dst: usize, via_extra: bool) -> Option<Path> {
        if src >= self.n || dst >= self.n {
            return None;
        }
        if via_extra && !self.extra_enabled {
            return None;
        }
        let mut line = src;
        let mut hops = Vec::with_capacity(self.stages());
        let mut lines = Vec::with_capacity(self.stages() + 1);
        for stage in Stage::all(self.m) {
            lines.push(line);
            let enabled = match stage.position {
                0 => self.extra_enabled,
                p if p == self.m => self.output_enabled,
                _ => true,
            };
            if !enabled {
                // Bypassed stage: the signal passes outside the boxes, so the
                // relevant address bit cannot change here.
                if stage.position == self.m && (line ^ dst) & 1 != 0 {
                    return None; // needs a cube_0 exchange but none available
                }
                continue;
            }
            let exchange = if stage.position == 0 {
                via_extra
            } else if stage.position == self.m && self.extra_enabled {
                // Output stage must undo whatever bit-0 state remains.
                (line ^ dst) & 1 != 0
            } else {
                (line >> stage.bit) & 1 != (dst >> stage.bit) & 1
            };
            let mode = if exchange {
                BoxMode::Exchange
            } else {
                BoxMode::Straight
            };
            hops.push(Hop {
                stage: stage.position,
                box_idx: box_index(line, stage.bit),
                port: box_port(line, stage.bit),
                mode,
            });
            if exchange {
                line ^= 1 << stage.bit;
            }
        }
        lines.push(line);
        (line == dst).then_some(Path {
            src,
            dst,
            via_extra,
            hops,
            lines,
        })
    }

    /// True if every box and every inter-stage link on the path is healthy.
    /// Links are traversed even across bypassed stages (the bypass routes
    /// around the boxes, not the wires), which is why the check walks the
    /// recorded line trajectory rather than the hop list.
    pub fn path_fault_free(&self, path: &Path) -> bool {
        let boxes_ok = path
            .hops
            .iter()
            .all(|h| !self.boxes[h.stage as usize][h.box_idx].faulty);
        let links_ok = (1..=self.m as usize).all(|b| {
            path.lines
                .get(b)
                .is_none_or(|&line| !self.link_faulty[b][line])
        });
        boxes_ok && links_ok
    }

    /// True if the path can be claimed given current circuit occupancy.
    pub fn path_available(&self, path: &Path) -> bool {
        path.hops.iter().all(|h| {
            let b = &self.boxes[h.stage as usize][h.box_idx];
            !b.faulty && !b.port_used[h.port] && b.mode.is_none_or(|m| m == h.mode)
        })
    }

    /// Establish a circuit `src → dst`, trying the direct route first and the
    /// extra-stage alternate second. Distinguishes "physically unroutable or
    /// fault-hit" ([`NetError::Unroutable`]) from "blocked by live circuits"
    /// ([`NetError::Blocked`]).
    pub fn establish(&mut self, src: usize, dst: usize) -> Result<CircuitId, NetError> {
        if src >= self.n {
            return Err(NetError::BadEndpoint(src));
        }
        if dst >= self.n {
            return Err(NetError::BadEndpoint(dst));
        }
        let candidates: Vec<Path> = [false, true]
            .into_iter()
            .filter_map(|via| self.route(src, dst, via))
            .collect();
        if candidates.is_empty() {
            return Err(NetError::Unroutable { src, dst });
        }
        let mut saw_fault_free = false;
        for path in &candidates {
            if !self.path_fault_free(path) {
                continue;
            }
            saw_fault_free = true;
            if self.path_available(path) {
                return Ok(self.claim(path));
            }
        }
        if saw_fault_free {
            Err(NetError::Blocked { src, dst })
        } else {
            Err(NetError::Unroutable { src, dst })
        }
    }

    /// Establish a specific pre-routed path (e.g. one chosen by a global
    /// allocator such as [`ring_circuits`], which may need the alternate route
    /// for some pairs even when the direct one is individually claimable).
    pub fn establish_path(&mut self, path: &Path) -> Result<CircuitId, NetError> {
        if !self.path_fault_free(path) {
            return Err(NetError::Unroutable {
                src: path.src,
                dst: path.dst,
            });
        }
        if !self.path_available(path) {
            return Err(NetError::Blocked {
                src: path.src,
                dst: path.dst,
            });
        }
        Ok(self.claim(path))
    }

    /// Latch the path's boxes and register the circuit. Caller must have
    /// verified fault-freeness and availability.
    fn claim(&mut self, path: &Path) -> CircuitId {
        let id = CircuitId(self.next_id);
        self.next_id += 1;
        for h in &path.hops {
            let b = &mut self.boxes[h.stage as usize][h.box_idx];
            b.mode = Some(h.mode);
            b.port_used[h.port] = true;
        }
        self.circuits.insert(id, path.clone());
        id
    }

    /// Tear down a circuit, freeing its boxes.
    pub fn release(&mut self, id: CircuitId) -> Result<(), NetError> {
        let path = self
            .circuits
            .remove(&id)
            .ok_or(NetError::NoSuchCircuit(id))?;
        for h in &path.hops {
            let b = &mut self.boxes[h.stage as usize][h.box_idx];
            b.port_used[h.port] = false;
            if !b.port_used[0] && !b.port_used[1] {
                b.mode = None;
            }
        }
        Ok(())
    }

    /// Look up an established circuit.
    pub fn circuit(&self, id: CircuitId) -> Option<&Path> {
        self.circuits.get(&id)
    }

    /// Number of live circuits.
    pub fn live_circuits(&self) -> usize {
        self.circuits.len()
    }

    /// Release everything.
    pub fn release_all(&mut self) {
        let ids: Vec<CircuitId> = self.circuits.keys().copied().collect();
        for id in ids {
            let _ = self.release(id);
        }
    }
}

/// Establish the matrix-multiplication ring on the given physical PEs:
/// `pes[i] → pes[(i + len − 1) % len]` (each PE sends its lowest-numbered A
/// column one logical position to the left). Returns the circuit ids in
/// logical order. All circuits are held simultaneously — the paper's algorithm
/// keeps "the network in one configuration", paying set-up once.
pub fn ring_circuits(net: &mut EscNetwork, pes: &[usize]) -> Result<Vec<CircuitId>, NetError> {
    let p = pes.len();
    // Pre-route the fault-free candidates of every logical pair. A faulted
    // network may force *particular* pairs onto their alternate route, and a
    // greedy left-to-right assignment can claim a box the only surviving path
    // of a later pair needs — so allocate globally with backtracking over the
    // (at most two) choices per pair. Fault-free networks still resolve on the
    // all-direct first branch, identical to the old greedy behaviour.
    let mut options: Vec<Vec<Path>> = Vec::with_capacity(p);
    for i in 0..p {
        let (src, dst) = (pes[i], pes[(i + p - 1) % p]);
        if src >= net.size() {
            return Err(NetError::BadEndpoint(src));
        }
        if dst >= net.size() {
            return Err(NetError::BadEndpoint(dst));
        }
        let cands: Vec<Path> = [false, true]
            .into_iter()
            .filter_map(|via| net.route(src, dst, via))
            .filter(|path| net.path_fault_free(path))
            .collect();
        if cands.is_empty() {
            return Err(NetError::Unroutable { src, dst });
        }
        options.push(cands);
    }
    fn dfs(
        net: &mut EscNetwork,
        options: &[Vec<Path>],
        i: usize,
        ids: &mut Vec<CircuitId>,
    ) -> bool {
        if i == options.len() {
            return true;
        }
        for path in &options[i] {
            if let Ok(id) = net.establish_path(path) {
                ids.push(id);
                if dfs(net, options, i + 1, ids) {
                    return true;
                }
                ids.pop();
                let _ = net.release(id);
            }
        }
        false
    }
    let mut ids = Vec::with_capacity(p);
    if dfs(net, &options, 0, &mut ids) {
        Ok(ids)
    } else {
        Err(NetError::Blocked {
            src: pes[0],
            dst: pes[(p - 1) % p],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh(n: usize) -> EscNetwork {
        EscNetwork::new(n)
    }

    #[test]
    fn routes_all_pairs_default_config() {
        let net = fresh(16);
        for s in 0..16 {
            for d in 0..16 {
                let p = net.route(s, d, false).expect("route must exist");
                assert_eq!(p.src, s);
                assert_eq!(p.dst, d);
                // Default config: extra stage bypassed => m hops.
                assert_eq!(p.hops.len(), 4);
            }
        }
    }

    #[test]
    fn two_disjoint_paths_with_both_cube0_stages() {
        let mut net = fresh(16);
        net.set_extra_enabled(true);
        for s in 0..16 {
            for d in 0..16 {
                let a = net.route(s, d, false).unwrap();
                let b = net.route(s, d, true).unwrap();
                // Interior hops must differ in every interior stage.
                for (ha, hb) in a
                    .hops
                    .iter()
                    .zip(&b.hops)
                    .filter(|(h, _)| h.stage != 0 && h.stage != 4)
                {
                    assert_ne!(ha.box_idx, hb.box_idx, "{s}->{d} stage {}", ha.stage);
                }
            }
        }
    }

    #[test]
    fn circuit_claim_and_release() {
        let mut net = fresh(8);
        let id = net.establish(3, 5).unwrap();
        assert_eq!(net.live_circuits(), 1);
        assert!(net.circuit(id).is_some());
        net.release(id).unwrap();
        assert_eq!(net.live_circuits(), 0);
        assert!(matches!(net.release(id), Err(NetError::NoSuchCircuit(_))));
    }

    #[test]
    fn conflicting_circuits_block() {
        let mut net = fresh(4);
        // 0->2 and 1->3 share stage-entry boxes; whether they conflict depends
        // on modes, so instead force a known collision: 0->3 then 1->2 need the
        // same first-stage box in different modes.
        let a = net.establish(0, 3).unwrap();
        match net.establish(1, 2) {
            Err(NetError::Blocked { .. }) => {}
            Ok(_) => {
                // If compatible (same box mode), identity-check a genuinely
                // conflicting pair: 1->3 reuses port 1 of the first box.
                let r = net.establish(1, 3);
                assert!(matches!(r, Err(NetError::Blocked { .. })), "{r:?}");
            }
            Err(e) => panic!("unexpected error {e}"),
        }
        net.release(a).unwrap();
    }

    #[test]
    fn ring_permutation_establishes_for_prototype_sizes() {
        for p in [2usize, 4, 8, 16] {
            let mut net = fresh(16);
            let pes: Vec<usize> = (0..p).map(|l| l * (16 / p)).collect();
            let ids = ring_circuits(&mut net, &pes).unwrap_or_else(|e| panic!("ring p={p}: {e}"));
            assert_eq!(ids.len(), p);
        }
        // Contiguous PE numbering must work too.
        for p in [4usize, 8, 16] {
            let mut net = fresh(16);
            let pes: Vec<usize> = (0..p).collect();
            ring_circuits(&mut net, &pes).unwrap_or_else(|e| panic!("contiguous ring p={p}: {e}"));
        }
    }

    #[test]
    fn interior_fault_is_routed_around() {
        let mut net = fresh(16);
        // Fault a box in interior stage 2, then reconfigure.
        net.set_fault(2, 3, true);
        net.reconfigure_for_faults();
        assert!(net.extra_enabled());
        assert!(net.output_enabled());
        for s in 0..16 {
            for d in 0..16 {
                let id = net
                    .establish(s, d)
                    .unwrap_or_else(|e| panic!("{s}->{d} with interior fault: {e}"));
                net.release(id).unwrap();
            }
        }
    }

    #[test]
    fn output_stage_fault_uses_extra_stage() {
        let mut net = fresh(16);
        net.set_fault(4, 0, true);
        net.reconfigure_for_faults();
        assert!(net.extra_enabled());
        assert!(!net.output_enabled());
        for s in 0..16 {
            for d in 0..16 {
                let id = net
                    .establish(s, d)
                    .unwrap_or_else(|e| panic!("{s}->{d}: {e}"));
                net.release(id).unwrap();
            }
        }
    }

    #[test]
    fn extra_stage_fault_is_hidden_by_bypass() {
        let mut net = fresh(16);
        net.set_fault(0, 5, true);
        net.reconfigure_for_faults();
        assert!(!net.extra_enabled());
        let id = net.establish(10, 11).unwrap();
        net.release(id).unwrap();
    }

    #[test]
    fn bad_endpoints_rejected() {
        let mut net = fresh(8);
        assert!(matches!(net.establish(8, 0), Err(NetError::BadEndpoint(8))));
        assert!(matches!(net.establish(0, 9), Err(NetError::BadEndpoint(9))));
    }

    #[test]
    fn release_all_clears() {
        let mut net = fresh(16);
        let pes: Vec<usize> = (0..8).collect();
        ring_circuits(&mut net, &pes).unwrap();
        assert_eq!(net.live_circuits(), 8);
        net.release_all();
        assert_eq!(net.live_circuits(), 0);
        // Boxes are free again.
        ring_circuits(&mut net, &pes).unwrap();
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        let _ = EscNetwork::new(6);
    }

    #[test]
    fn link_fault_forces_both_stages_and_disjoint_lines_survive() {
        let mut net = fresh(8);
        net.apply_faults(&[NetFault::Link {
            boundary: 2,
            line: 3,
        }]);
        assert!(net.extra_enabled() && net.output_enabled());
        for s in 0..8 {
            for d in 0..8 {
                let a = net.route(s, d, false).unwrap();
                let b = net.route(s, d, true).unwrap();
                // The two paths differ in address bit 0 at every interior
                // boundary, so they never share an inter-stage line.
                for bdy in 1..=3 {
                    assert_ne!(a.lines[bdy], b.lines[bdy], "{s}->{d} boundary {bdy}");
                }
                assert!(
                    net.path_fault_free(&a) || net.path_fault_free(&b),
                    "{s}->{d}: both paths hit the faulted link"
                );
            }
        }
    }

    #[test]
    fn every_single_fault_leaves_all_pairs_routable() {
        for n in [8usize, 16] {
            for fault in crate::fault::single_faults(n) {
                let mut net = fresh(n);
                net.apply_faults(&[fault]);
                for s in 0..n {
                    for d in 0..n {
                        let id = net
                            .establish(s, d)
                            .unwrap_or_else(|e| panic!("n={n} fault={fault} {s}->{d}: {e}"));
                        net.release(id).unwrap();
                    }
                }
            }
        }
    }

    #[test]
    fn spread_ring_establishes_under_every_single_fault() {
        // With PEs on every other line (p <= n/2) no two ring circuits share
        // an extra- or output-stage box, so each pair's via-extra choice is
        // free and the backtracking allocator always finds an assignment.
        for n in [8usize, 16] {
            for fault in crate::fault::single_faults(n) {
                let mut net = fresh(n);
                net.apply_faults(&[fault]);
                for p in [2usize, 4, 8].into_iter().filter(|&p| p <= n / 2) {
                    let pes: Vec<usize> = (0..p).map(|l| l * (n / p)).collect();
                    let ids = ring_circuits(&mut net, &pes)
                        .unwrap_or_else(|e| panic!("n={n} fault={fault} p={p}: {e}"));
                    assert_eq!(ids.len(), p);
                    net.release_all();
                }
            }
        }
    }

    #[test]
    fn full_ring_under_interior_fault_blocks_cleanly() {
        // The p = n ring covers every line, so every interior stage needs all
        // n/2 of its boxes: a single interior box fault makes the one-pass
        // permutation infeasible (the ESC theorem guarantees one-to-one
        // connections, and *two* passes for permutations). The allocator must
        // report Blocked, not panic or leak circuits.
        let mut net = fresh(4);
        net.apply_faults(&[NetFault::Box {
            stage: 1,
            box_idx: 0,
        }]);
        let pes: Vec<usize> = (0..4).collect();
        match ring_circuits(&mut net, &pes) {
            Err(NetError::Blocked { .. }) => {}
            other => panic!("expected Blocked, got {other:?}"),
        }
        assert_eq!(net.live_circuits(), 0);
        // The network is still fully usable pairwise.
        let id = net.establish(0, 3).unwrap();
        net.release(id).unwrap();
    }

    /// A link fault at an interior boundary would cut any tree reaching
    /// every line; a unicast circuit routes around it.
    #[test]
    fn broadcast_killed_by_link_fault_but_unicast_survives() {
        let mut net = fresh(8);
        net.apply_faults(&[NetFault::Link {
            boundary: 3,
            line: 6,
        }]);
        let id = net.establish(0, 6).unwrap();
        net.release(id).unwrap();
    }
}
