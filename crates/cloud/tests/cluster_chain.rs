//! Integration test: chained cluster tasks exchanging data through the
//! master NIC (regression test for an event-loop livelock).

use mashup_cloud::{
    Cloud, CloudWorld, ClusterConfig, ClusterTaskSpec, FaasConfig, InstanceType, StorageConfig,
    VmCluster,
};
use mashup_sim::{SeedSource, Simulation};

struct World {
    cloud: Cloud<World>,
    done_at: Option<f64>,
}

impl CloudWorld for World {
    fn cloud(&mut self) -> &mut Cloud<Self> {
        &mut self.cloud
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
    let mut world = World {
        cloud,
        done_at: None,
    };

    let mut wide = ClusterTaskSpec::new("wide", 64, 5.0);
    wide.output_bytes = 1.0e7;
    let mut merge = ClusterTaskSpec::new("merge", 1, 10.0);
    merge.input_bytes = 6.4e8;
    merge.output_bytes = 1.0e7;

    sim.schedule_now(move |w: &mut World, sim| {
        VmCluster::run_task(w, sim, wide, move |w: &mut World, sim, _| {
            VmCluster::run_task(w, sim, merge, |w: &mut World, sim, _| {
                w.done_at = Some(sim.now().as_secs());
            });
        });
    });
    sim.run(&mut world);
    let end = world.done_at.expect("chain completed");
    assert!(end > 0.0);
}
