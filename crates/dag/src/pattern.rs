//! Component-level dependency patterns between tasks.
//!
//! The paper (§2, §4) identifies three connection dynamics in scientific
//! workflow DAGs — fan-out, fan-in, and strong connection — plus the
//! implicit one-to-one pipelining between equal-width tasks. A
//! [`DependencyPattern`] names the pattern; [`DependencyPattern::producer_components`]
//! expands it to concrete component indices.

use serde::{Deserialize, Serialize};

/// How the components of a consumer task depend on the components of a
/// producer task in an earlier phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DependencyPattern {
    /// Component `i` of the consumer depends on component `i` of the
    /// producer. Requires equal component counts.
    OneToOne,
    /// Every consumer component depends on every producer component
    /// (the paper's "strong connection"; with a single consumer component
    /// this is a fan-in, with a single producer component a fan-out).
    AllToAll,
    /// Producer components each feed a contiguous block of consumer
    /// components (fan-out). Requires `consumer % producer == 0`.
    FanOutBlocks,
    /// Consumer components each consume a contiguous block of producer
    /// components (fan-in). Requires `producer % consumer == 0`.
    FanInBlocks,
}

impl DependencyPattern {
    /// The variant's name, as `{:?}` prints it.
    pub fn name(self) -> &'static str {
        match self {
            DependencyPattern::OneToOne => "OneToOne",
            DependencyPattern::AllToAll => "AllToAll",
            DependencyPattern::FanOutBlocks => "FanOutBlocks",
            DependencyPattern::FanInBlocks => "FanInBlocks",
        }
    }

    /// Checks the component-count compatibility rule for this pattern.
    pub fn check(&self, producer: usize, consumer: usize) -> Result<(), String> {
        if producer == 0 || consumer == 0 {
            return Err("tasks must have at least one component".into());
        }
        match self {
            DependencyPattern::OneToOne if producer != consumer => Err(format!(
                "OneToOne requires equal component counts, got {producer} -> {consumer}"
            )),
            DependencyPattern::FanOutBlocks if !consumer.is_multiple_of(producer) => Err(format!(
                "FanOutBlocks requires consumer ({consumer}) divisible by producer ({producer})"
            )),
            DependencyPattern::FanInBlocks if !producer.is_multiple_of(consumer) => Err(format!(
                "FanInBlocks requires producer ({producer}) divisible by consumer ({consumer})"
            )),
            _ => Ok(()),
        }
    }

    /// The producer component indices that consumer component `comp` depends
    /// on, given the two tasks' component counts.
    pub fn producer_components(&self, producer: usize, consumer: usize, comp: usize) -> Vec<usize> {
        debug_assert!(comp < consumer);
        match self {
            DependencyPattern::OneToOne => vec![comp],
            DependencyPattern::AllToAll => (0..producer).collect(),
            DependencyPattern::FanOutBlocks => {
                let block = consumer / producer;
                vec![comp / block]
            }
            DependencyPattern::FanInBlocks => {
                let block = producer / consumer;
                (comp * block..(comp + 1) * block).collect()
            }
        }
    }

    /// Number of producer components a single consumer component reads
    /// (its fan-in degree).
    pub fn fan_in_degree(&self, producer: usize, consumer: usize) -> usize {
        match self {
            DependencyPattern::OneToOne => 1,
            DependencyPattern::AllToAll => producer,
            DependencyPattern::FanOutBlocks => 1,
            DependencyPattern::FanInBlocks => producer / consumer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_debug_output() {
        use DependencyPattern::*;
        for p in [OneToOne, AllToAll, FanOutBlocks, FanInBlocks] {
            assert_eq!(p.name(), format!("{p:?}"));
        }
    }

    #[test]
    fn one_to_one_maps_identity() {
        let p = DependencyPattern::OneToOne;
        p.check(4, 4).expect("equal counts ok");
        assert!(p.check(4, 5).is_err());
        assert_eq!(p.producer_components(4, 4, 2), vec![2]);
        assert_eq!(p.fan_in_degree(4, 4), 1);
    }

    #[test]
    fn all_to_all_maps_everything() {
        let p = DependencyPattern::AllToAll;
        p.check(3, 7).expect("any counts ok");
        assert_eq!(p.producer_components(3, 7, 5), vec![0, 1, 2]);
        assert_eq!(p.fan_in_degree(1252, 1), 1252);
    }

    #[test]
    fn fan_out_blocks() {
        // 2 producers -> 6 consumers: producer 0 feeds comps 0..3.
        let p = DependencyPattern::FanOutBlocks;
        p.check(2, 6).expect("divisible");
        assert!(p.check(2, 5).is_err());
        assert_eq!(p.producer_components(2, 6, 0), vec![0]);
        assert_eq!(p.producer_components(2, 6, 2), vec![0]);
        assert_eq!(p.producer_components(2, 6, 3), vec![1]);
        assert_eq!(p.fan_in_degree(2, 6), 1);
    }

    #[test]
    fn fan_in_blocks() {
        // 6 producers -> 2 consumers: consumer 1 reads comps 3..6.
        let p = DependencyPattern::FanInBlocks;
        p.check(6, 2).expect("divisible");
        assert!(p.check(5, 2).is_err());
        assert_eq!(p.producer_components(6, 2, 1), vec![3, 4, 5]);
        assert_eq!(p.fan_in_degree(6, 2), 3);
    }

    #[test]
    fn zero_components_rejected() {
        assert!(DependencyPattern::AllToAll.check(0, 1).is_err());
        assert!(DependencyPattern::AllToAll.check(1, 0).is_err());
    }
}
