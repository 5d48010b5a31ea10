//! Integration test: chained cluster tasks exchanging data through the
//! master NIC (regression test for an event-loop livelock).

use mashup_cloud::{
    Cloud, CloudEvent, CloudWorld, ClusterConfig, ClusterRunStats, ClusterTaskSpec, FaasConfig,
    FaasRunStats, InstanceType, StorageConfig, VmCluster,
};
use mashup_sim::{Model, SeedSource, Simulation};
use std::convert::Infallible;

struct World {
    cloud: Cloud<World>,
    /// The merge task, started when the wide task finishes.
    merge: Option<ClusterTaskSpec<'static>>,
    done_at: Option<f64>,
}

/// The cloud's events, and the start of the chain's first task.
enum Event {
    Cloud(CloudEvent),
    Start(ClusterTaskSpec<'static>),
}

impl From<CloudEvent> for Event {
    fn from(e: CloudEvent) -> Self {
        Event::Cloud(e)
    }
}

impl Model for World {
    type Event = Event;
    fn handle(&mut self, event: Event, sim: &mut Simulation<Self>) {
        match event {
            Event::Cloud(e) => e.dispatch(self, sim),
            Event::Start(wide) => VmCluster::run_task(self, sim, wide, ()),
        }
    }
}

impl CloudWorld for World {
    type ClusterTag = ();
    type FaasTag = Infallible;
    fn cloud(&mut self) -> &mut Cloud<Self> {
        &mut self.cloud
    }
    fn cluster_done(&mut self, sim: &mut Simulation<Self>, (): (), _: ClusterRunStats) {
        match self.merge.take() {
            Some(merge) => VmCluster::run_task(self, sim, merge, ()),
            None => self.done_at = Some(sim.now().as_secs()),
        }
    }
    fn faas_done(&mut self, _: &mut Simulation<Self>, tag: Infallible, _: FaasRunStats) {
        match tag {}
    }
}

#[test]
fn wide_task_feeding_merge_through_master_terminates() {
    let mut sim = Simulation::new().with_event_limit(5_000_000);
    let cloud = Cloud::new(
        &mut sim,
        ClusterConfig::new(InstanceType::r5_large(), 8),
        FaasConfig::aws_like(),
        StorageConfig::s3_like(),
        &SeedSource::new(42),
    );
    let mut merge = ClusterTaskSpec::new("merge", 1, 10.0);
    merge.input_bytes = 6.4e8;
    merge.output_bytes = 1.0e7;
    let mut world = World {
        cloud,
        merge: Some(merge),
        done_at: None,
    };

    let mut wide = ClusterTaskSpec::new("wide", 64, 5.0);
    wide.output_bytes = 1.0e7;

    sim.schedule_now(Event::Start(wide));
    sim.run(&mut world);
    let end = world.done_at.expect("chain completed");
    assert!(end > 0.0);
}
