//! Property-based tests of the max-min fair flow model: the invariants
//! every bandwidth allocation must satisfy, under random topologies,
//! flow sets, and event interleavings. They need no oracle; the max-min
//! certificate is the semantic check independent of any water-filling.
//! The differential checks against the per-flow oracle, on every
//! topology profile, live beside the kernel in `flow.rs`'s test module.
//! Each property is a function in [`property`], run on random cases and
//! on the one case a shrink once saved.

use proptest::prelude::*;
use simnet::{FlowNet, SimDuration, SimTime, Topology};

/// A flow: source node, destination node, bytes.
type Flow = (usize, usize, u32);

/// A random flat topology and a set of random flows on it.
fn arb_case() -> impl Strategy<Value = (usize, Vec<Flow>)> {
    (3usize..12).prop_flat_map(|n| {
        let flows = prop::collection::vec(
            (0..n, 0..n, 1u32..2_000_000).prop_filter_map("distinct endpoints", |(a, b, kb)| {
                (a != b).then_some((a, b, kb))
            }),
            1..24,
        );
        (Just(n), flows)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn rates_respect_link_capacities((n, flows) in arb_case()) {
        property::rates_respect_link_capacities(n, &flows)?;
    }

    #[test]
    fn every_flow_has_a_saturated_link((n, flows) in arb_case()) {
        property::every_flow_has_a_saturated_link(n, &flows)?;
    }

    #[test]
    fn max_min_certificate((n, flows) in arb_case()) {
        property::max_min_certificate(n, &flows)?;
    }

    #[test]
    fn all_flows_complete_in_order((n, flows) in arb_case()) {
        property::all_flows_complete_in_order(n, &flows)?;
    }

    #[test]
    fn allocation_is_deterministic((n, flows) in arb_case()) {
        property::allocation_is_deterministic(n, &flows)?;
    }
}

/// The case a shrink once saved, on a flat 4-node topology, holds every
/// property.
#[test]
fn saved_shrink_holds_every_property() {
    let flows = [
        (1, 3, 1_133_813),
        (1, 2, 989_583),
        (2, 1, 750_012),
        (0, 3, 605_098),
        (0, 1, 1_347_274),
        (0, 3, 1_081_090),
    ];
    property::rates_respect_link_capacities(4, &flows).unwrap();
    property::every_flow_has_a_saturated_link(4, &flows).unwrap();
    property::max_min_certificate(4, &flows).unwrap();
    property::all_flows_complete_in_order(4, &flows).unwrap();
    property::allocation_is_deterministic(4, &flows).unwrap();
}

/// The properties, each over `n` flat-topology nodes and `flows`.
mod property {
    use super::*;

    /// Rates are positive and no link's capacity is exceeded.
    pub fn rates_respect_link_capacities(n: usize, flows: &[Flow]) -> Result<(), String> {
        let mut net = FlowNet::new();
        let topo = Topology::flat(&mut net, n, 10.0, SimDuration::from_micros(1));
        let ids: Vec<_> = flows
            .iter()
            .map(|&(a, b, bytes)| net.start_flow(SimTime::ZERO, &topo.path(a, b), bytes as f64))
            .collect();
        // Per-link rate sums.
        let mut tx = vec![0.0f64; n];
        let mut rx = vec![0.0f64; n];
        for (&id, &(a, b, _)) in ids.iter().zip(flows) {
            let r = net.flow_rate_bps(id).expect("active flow has a rate");
            prop_assert!(r > 0.0, "zero rate");
            tx[a] += r;
            rx[b] += r;
        }
        for i in 0..n {
            prop_assert!(
                tx[i] <= 10e9 * (1.0 + 1e-9),
                "tx[{i}] over capacity: {}",
                tx[i]
            );
            prop_assert!(
                rx[i] <= 10e9 * (1.0 + 1e-9),
                "rx[{i}] over capacity: {}",
                rx[i]
            );
        }
        Ok(())
    }

    /// Work conservation: every flow is bottlenecked somewhere — some link
    /// on its path is (near-)fully utilised.
    pub fn every_flow_has_a_saturated_link(n: usize, flows: &[Flow]) -> Result<(), String> {
        let mut net = FlowNet::new();
        let topo = Topology::flat(&mut net, n, 10.0, SimDuration::from_micros(1));
        let ids: Vec<_> = flows
            .iter()
            .map(|&(a, b, bytes)| net.start_flow(SimTime::ZERO, &topo.path(a, b), bytes as f64))
            .collect();
        let mut tx = vec![0.0f64; n];
        let mut rx = vec![0.0f64; n];
        for (&id, &(a, b, _)) in ids.iter().zip(flows) {
            let r = net.flow_rate_bps(id).expect("rate");
            tx[a] += r;
            rx[b] += r;
        }
        for &(a, b, _) in flows {
            let saturated = tx[a] >= 10e9 * (1.0 - 1e-9) || rx[b] >= 10e9 * (1.0 - 1e-9);
            prop_assert!(
                saturated,
                "flow {a}->{b} not bottlenecked: tx {} rx {}",
                tx[a],
                rx[b]
            );
        }
        Ok(())
    }

    /// Max-min property: you cannot raise any flow's rate without lowering
    /// a flow of equal-or-smaller rate. Check the standard certificate:
    /// every flow crosses a saturated link on which it has the maximum
    /// rate.
    pub fn max_min_certificate(n: usize, flows: &[Flow]) -> Result<(), String> {
        let mut net = FlowNet::new();
        let topo = Topology::flat(&mut net, n, 10.0, SimDuration::from_micros(1));
        let ids: Vec<_> = flows
            .iter()
            .map(|&(a, b, bytes)| net.start_flow(SimTime::ZERO, &topo.path(a, b), bytes as f64))
            .collect();
        let rates: Vec<f64> = ids
            .iter()
            .map(|&id| net.flow_rate_bps(id).expect("rate"))
            .collect();
        let rate = |i: usize| rates[i];
        // For each flow: find a link (tx a / rx b) that is saturated and on
        // which this flow's rate is maximal.
        for (i, &(a, b, _)) in flows.iter().enumerate() {
            let mut certified = false;
            for side in 0..2 {
                let mut sum = 0.0;
                let mut max_other: f64 = 0.0;
                for (j, &(a2, b2, _)) in flows.iter().enumerate() {
                    let on_link = if side == 0 { a2 == a } else { b2 == b };
                    if on_link {
                        sum += rate(j);
                        if j != i {
                            max_other = max_other.max(rate(j));
                        }
                    }
                }
                if sum >= 10e9 * (1.0 - 1e-9) && rate(i) >= max_other * (1.0 - 1e-9) {
                    certified = true;
                    break;
                }
            }
            prop_assert!(certified, "flow {i} has no bottleneck certificate");
        }
        Ok(())
    }

    /// Completing flows in event order always terminates, delivers every
    /// byte, and never moves time backwards.
    pub fn all_flows_complete_in_order(n: usize, flows: &[Flow]) -> Result<(), String> {
        let mut net = FlowNet::new();
        let topo = Topology::flat(&mut net, n, 10.0, SimDuration::from_micros(1));
        let total_bytes: f64 = flows.iter().map(|&(_, _, b)| b as f64).sum();
        for &(a, b, bytes) in flows {
            net.start_flow(SimTime::ZERO, &topo.path(a, b), bytes as f64);
        }
        let mut done = 0usize;
        let mut last = SimTime::ZERO;
        while let Some((t, f)) = net.next_completion() {
            prop_assert!(t >= last, "completion time went backwards");
            last = t;
            net.complete_flow(t, f);
            done += 1;
            prop_assert!(done <= flows.len(), "more completions than flows");
        }
        prop_assert_eq!(done, flows.len());
        prop_assert_eq!(net.num_flows(), 0);
        // Conservation: rx-side links carried the payload bytes, up to the
        // nanosecond quantisation of each flow's completion instant (each
        // flow may under-count by a rate x sub-ns sliver).
        let carried: f64 = (0..n).map(|i| net.bytes_carried(topo.rx_link(i))).sum();
        let tolerance = 4.0 * flows.len() as f64 + total_bytes * 1e-9;
        prop_assert!(
            (carried - total_bytes).abs() < tolerance,
            "bytes carried {} vs sent {}",
            carried,
            total_bytes
        );
        Ok(())
    }

    /// Determinism: the same flow set yields bit-identical completion
    /// schedules.
    pub fn allocation_is_deterministic(n: usize, flows: &[Flow]) -> Result<(), String> {
        let run = || {
            let mut net = FlowNet::new();
            let topo = Topology::flat(&mut net, n, 10.0, SimDuration::from_micros(1));
            for &(a, b, bytes) in flows {
                net.start_flow(SimTime::ZERO, &topo.path(a, b), bytes as f64);
            }
            let mut times = Vec::new();
            while let Some((t, f)) = net.next_completion() {
                net.complete_flow(t, f);
                times.push(t.as_nanos());
            }
            times
        };
        prop_assert_eq!(run(), run());
        Ok(())
    }
}
