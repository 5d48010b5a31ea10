//! # mashup
//!
//! Facade crate for the Mashup reproduction — *"Mashup: Making Serverless
//! Computing Useful for HPC Workflows via Hybrid Execution"* (PPoPP '22).
//!
//! Re-exports the public API of every workspace crate under one roof:
//!
//! * [`dag`] — workflow DAG model (components, tasks, phases, patterns);
//! * [`workflows`] — the paper's 1000Genome, SRAsearch, and Epigenomics;
//! * [`cloud`] — simulated VM cluster, FaaS platform, and object store;
//! * [`analyze`] — static workflow/plan/config diagnostics (M-codes);
//! * [`engine`] — the Mashup engine: PDC + hybrid executor;
//! * [`baselines`] — the [`Strategy`](prelude::Strategy) registry: every
//!   strategy the paper compares (traditional cluster, serverless-only,
//!   Pegasus-like, Kepler-like, fusion, Mashup with and without its PDC)
//!   behind one `run`;
//! * [`serve`] — the multi-tenant planning service, shared worker pool,
//!   and Pareto plan search;
//! * [`sim`] — the discrete-event substrate.
//!
//! ```
//! use mashup::prelude::*;
//!
//! // Check the workflow once; every planner and strategy takes the result.
//! let workflow = CheckedWorkflow::new(mashup::workflows::srasearch::workflow())
//!     .expect("the paper's workflows pass the analyzer");
//! let cfg = MashupConfig::aws(4);
//! let outcome = Mashup::new(cfg.clone())
//!     .run_checked(&workflow)
//!     .expect("a 4-node cluster passes the config checks");
//! let baseline = Strategy::Traditional
//!     .run(&cfg, &workflow, &Tracer::off(), None)
//!     .expect("and so does its all-VM plan");
//! assert!(outcome.report.makespan_secs < baseline.makespan_secs);
//! ```

#![warn(missing_docs)]

pub use mashup_analyze as analyze;
pub use mashup_baselines as baselines;
pub use mashup_cloud as cloud;
pub use mashup_core as engine;
pub use mashup_dag as dag;
pub use mashup_serve as serve;
pub use mashup_sim as sim;
pub use mashup_workflows as workflows;

/// The most commonly used items in one import.
pub mod prelude {
    pub use mashup_analyze::{render_pretty, AnalysisError, Diagnostic};
    pub use mashup_baselines::Strategy;
    pub use mashup_cloud::{Fault, FaultPlan, FaultProfile};
    pub use mashup_core::{
        improvement_pct, ChaosSpec, CheckedWorkflow, Mashup, MashupConfig, MashupOutcome,
        Objective, Pdc, PlacementPlan, Platform, TraceEvent, TraceRecord, Tracer, WorkflowReport,
    };
    pub use mashup_dag::{
        DependencyPattern, Task, TaskProfile, TaskRef, Workflow, WorkflowBuilder,
    };
    pub use mashup_workflows::{epigenomics, genome1000, srasearch};
}
