//! Compile-time `Send` assertions for the engine's entry points.
//!
//! The planning service and the figure sweep both move *whole* engine
//! worlds onto worker threads, which is only sound while every type in the
//! execution stack stays `Send`. A reintroduced `Rc`, `RefCell`, or
//! non-`Send` trait object anywhere in the state graph turns these into
//! compile errors pointing at the offending type — much earlier and
//! clearer than a trait-bound error three layers up in `par_map`. Every
//! strategy, Kepler's dataflow runs included, executes in the executor's
//! world, so asserting that world covers them all.

fn assert_send<T: Send>() {}
fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn engine_entry_points_are_send() {
    // The simulation substrate and its flight recorder.
    assert_send::<mashup_sim::Simulation<()>>();
    assert_send::<mashup_sim::Tracer>();

    // The executor's world, and the engine over it.
    type Exec = Option<mashup_core::Execution<'static>>;
    type ExecWorld = mashup_core::World<Exec>;
    assert_send::<ExecWorld>();
    assert_send::<mashup_sim::Simulation<ExecWorld>>();

    // The simulated cloud substrates.
    assert_send::<mashup_cloud::VmCluster>();
    assert_send::<mashup_cloud::FaasPlatform>();
    assert_send::<mashup_cloud::ObjectStore>();
    assert_send::<mashup_cloud::CostMeter>();

    // The engine facade and its environment.
    assert_send::<mashup_core::CloudEnv<Exec>>();
    assert_send::<mashup_core::Mashup>();
    assert_send::<mashup_core::Pdc>();
    assert_send::<mashup_core::MashupOutcome>();
    assert_send::<mashup_core::WorkflowReport>();
}

#[test]
fn shared_serving_state_is_send_and_sync() {
    // Genuinely-shared state must also be Sync: one instance, many
    // threads.
    assert_send_sync::<mashup_core::PlanCache>();
    assert_send_sync::<mashup_serve::PlanService>();
    assert_send::<mashup_serve::Ticket>();
}
